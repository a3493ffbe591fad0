"""Fixture: malformed suppression pragmas (reserved `pragma` rule)."""

X = 1  # reprolint: disable=error-taxonomy
Y = 2  # reprolint: disable=not-a-rule -- the rule name is made up

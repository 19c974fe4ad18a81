# Seeded DEAD001: the pragma below excuses a CACHE001 violation that no
# longer exists on the target line.  CI lints with --rules CACHE001,DEAD001
# and asserts the linter flags the stale pragma.

# repro-lint: allow[CACHE001] the re-thaw this excused is gone
VALUE = 1

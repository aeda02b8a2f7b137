"""Shared numerical tolerances.

Every module and test pulls its thresholds from here so that a single change
keeps the solver, the certifiers and the test suite consistent.
"""

# Structural checks: hermiticity residuals, completeness sums, serialization
# round trips. Anything violating this is a programming error, not noise.
STRUCTURAL_TOL = 1e-12

# Decision threshold for "is this operator positive semidefinite".
PSD_TOL = 1e-9

# Conic solver defaults.
DEFAULT_GAP_TOL = 1e-9
DEFAULT_FEAS_TOL = 1e-9
DEFAULT_MAX_ITER = 200

# Verdicts derived from an optimal visibility compare against 1 with a margin
# of this many duality gaps.
VERDICT_MARGIN_FACTOR = 10.0

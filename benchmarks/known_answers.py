"""Known answers for the suite-sweep verdicts, written out by hand.

For each of the 14 configurations that `cgalgebra all` runs, the check ids
the report must list, in order, every one of them passing.  The pass counts
are 57/10/7/6/11/28/8/6/11/10/14/14/2/2, 186 in all.  The bracket checks
cover every unordered pair of the eight rank-3/2 generators in each
realization; the symmetry re-verifications carry the eigenvalue lattice of
ad_H found for the generic, omega = 1 and omega = 3 oscillators.
"""

from itertools import combinations

CGA_GENERATORS = ("z0", "z+", "z-", "w+3", "w+1", "w-1", "w-3", "c")


def _brackets(realization):
    return [f"{realization}:[{a},{b}]" for a, b in combinations(CGA_GENERATORS, 2)]


def _reverify(lams):
    return [f"reverify:{k}:lam={lam}" for k, lam in enumerate(lams)]


_SPECTRUM_COUPLINGS = ("0.0", "0.3", "(0.7+0.2j)", "2.0")
_H0_LEVELS = [(0, 0, 2), (1, 0, 3), (2, 0, 4), (3, 0, 5), (0, 1, 5), (4, 0, 6), (1, 1, 6),
              (5, 0, 7), (2, 1, 7), (6, 0, 8), (3, 1, 8), (0, 2, 8)]

EXPECTED_CHECKS = {
    "verify-algebra": ["table-consistency"] + _brackets("free") + _brackets("osc"),
    "omega": ["free:sl2:[O0,O+]", "free:sl2:[O0,O-]", "free:sl2:[O+,O-]",
              "osc:sl2:[O0,O+]", "osc:sl2:[O0,O-]", "osc:sl2:[O+,O-]",
              "[X+,H0]=2iK+", "[X+,K+]=-2iK+", "iX+ + H0 + K+ = 0",
              "coupling-similarity-decouples"],
    "onshell": ["free:Omega+1", "free:Omega0", "free:Omega-1",
                "osc:Omega+1", "osc:Omega0", "osc:Omega-1", "decoupled-generic"],
    "critical": ["omega-set", "lambda-at-3", "lambda-at-minus-3", "lambda-at-third",
                 "lambda-at-minus-third", "back-substitution"],
    "contract": ["table-consistency", "contracted-closure"]
                + [f"identification:{g}" for g in ("z+", "z0", "z-", "w+3", "w+1", "w-1", "w-3", "c")]
                + ["not-a-subalgebra"],
    "eigencheck": ["w+1 annihilates ground state", "w+3 annihilates ground state",
                   "[H0, w-1] = 1 w-1", "[H0, w-3] = 3 w-3",
                   "H0 equals its quadratic ladder combination"]
                  + [f"psi{s} {kind}" for s in ("10", "20", "01", "11")
                     for kind in ("closed form", "product route agrees")]
                  + [f"H0 psi_({n},{m}) = {e} psi" for n, m, e in _H0_LEVELS]
                  + ["quoted-(1,1)-misprint-demonstrated", "PT:H0", "PT:odd-perturbation"],
    "modes": ["eigenvalue-multiset", "canonical-pairing", "K-in-mode-basis", "N-in-mode-basis",
              "K-N-commute", "decoupling-similarity", "bogoliubov-invertible", "eigenstates-span"],
    "overlap": ["decay-probability:g=1/2", "decay-probability:g=1", "decay-probability:g=4",
                "large-coupling-limit", "self-overlap", "state-11-expansion"],
    "spectrum": ["triangular:g=0.0", "eigenvalues:g=0.0"]
                + [f"{kind}:g={g}" for g in _SPECTRUM_COUPLINGS[1:]
                   for kind in ("triangular", "eigenvalues", "gamma-independence")],
    "symmetries-generic": ["generic-dimension"]
                          + _reverify(["-2", "-1", "-1*w", "0", "0", "0", "1*w", "1", "2"]),
    "symmetries-1": ["dimension"]
                    + _reverify(["-2", "-2", "-2", "-1", "-1", "0", "0", "0", "0", "1", "1", "2"])
                    + ["catalog-closure"],
    "symmetries-3": ["dimension"]
                    + _reverify(["-6", "-4", "-3", "-2", "-2", "-1", "0", "0", "0", "1", "2", "3"])
                    + ["catalog-closure"],
    "general-l-3_2": ["free-matches-quadratic-invariant", "osc-time-phase-family"],
    "general-l-5_2": ["signs=(1, 1):time-phase-family", "signs=(-1, 1):time-phase-family"],
}

PASS_COUNTS = (57, 10, 7, 6, 11, 28, 8, 6, 11, 10, 14, 14, 2, 2)

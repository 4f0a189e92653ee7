"""The benchmark's workloads: seeded inputs, one timed operation, verdicts.

Each workload is a closed loop with one client: the next operation starts
when the previous one returns.  Operations come in passes of fixed
composition, so that a run's statistics do not hinge on which inputs a seed
happened to draw:

- suite-sweep: a pass is the 14 configurations of `cgalgebra all`, each one
  `cli.main([...])` call at default options, in an order the seed shuffles.
- weyl-products: a pass is the 100 operator triples that
  `tests/test_weyl.py::test_associativity_and_jacobi_random` draws with
  `random.Random(42)`, in an order the seed shuffles.  Triples drawn from a
  per-run seed instead made the median operation time differ by about 25%
  (quartile spread over ten seeds) between runs of the same code, because
  one triple costs anywhere from 3 ms to 2 s.
- fock-states: a pass is one operation per cutoff N = 6..12, in an order the
  seed shuffles, each with its own seeded coupling and formal eigenstate.

The program only ever receives the generated inputs.  Verdicts are checked
against answers that do not come from the code under test: the hand-written
check table in `known_answers`, the identities of an associative algebra,
and the paper's closed forms for the oscillator.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "cgalgebra" / "__init__.py").is_file():
    raise SystemExit(f"benchmark: no cgalgebra sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from cgalgebra import cli, fock, weyl  # noqa: E402
from cgalgebra.ring import Coefficient, GaussianRational  # noqa: E402

import known_answers  # noqa: E402
from spans import CLI_CONFIGS  # noqa: E402

F = Fraction
Verdict = Tuple[bool, str]


def pass_rng(seed: int, k: int) -> random.Random:
    """The generator for pass k of a run with this seed."""
    return random.Random(seed * 1_000_003 + k)


class Workload:
    """A workload's run parameters; subclasses add make_pass, run and check.

    A run makes at least `min_passes` passes, so that the `tail_pct`
    percentile of its operation times has ten or more samples above it.
    An operation that takes longer than `op_limit_s` is a failure.  A traced
    pass runs the first `trace_ops` operations of pass 0 (all when None).
    `idle_layers` must record zero calls in a traced pass.  Operations with
    equal `key` recur in every pass, and a run reduces their times to one
    median before it takes percentiles (see `run.end_to_end`).  The four
    descriptions go into `baseline.json`.
    """

    name = ""
    operation = one_pass = seed_controls = verdict = ""
    tail_pct = 80
    min_passes = 1
    op_limit_s = 20.0
    trace_ops = None
    idle_layers: Tuple[str, ...] = ()

    def span(self, inp):
        """Name of a benchmark-side span around one operation, if any."""
        return None

    def key(self, inp):
        return inp


# ---------------------------------------------------------------------------
# suite-sweep
# ---------------------------------------------------------------------------

class SuiteSweep(Workload):
    name = "suite-sweep"
    operation = ("one cli.main([config..., '--out', tmp]) call for one of the 14 "
                 "configurations of `cgalgebra all`, at default options")
    one_pass = "the 14 configurations (one `cgalgebra all`)"
    seed_controls = "the order of each pass"
    verdict = ("exit code 0; the hand-written check ids of known_answers.py, in order, "
               "all passing (57/10/7/6/11/28/8/6/11/10/14/14/2/2 = 186)")
    min_passes = 5
    op_limit_s = 30.0

    def __init__(self, workdir: Path):
        self.report_path = str(workdir / "report.json")

    def make_pass(self, seed: int, k: int) -> List[str]:
        configs = list(CLI_CONFIGS)
        pass_rng(seed, k).shuffle(configs)
        return configs

    def span(self, config: str) -> str:
        return f"cli.{config}"

    def run(self, config: str):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(CLI_CONFIGS[config] + ["--out", self.report_path])
        return rc

    def check(self, config: str, rc) -> Verdict:
        if rc != 0:
            return False, f"exit code {rc}"
        report = json.loads(Path(self.report_path).read_text())
        ids = [c["id"] for c in report["checks"]]
        want = known_answers.EXPECTED_CHECKS[config]
        if ids != want:
            return False, f"check ids differ: got {len(ids)}, want {len(want)}"
        bad = [c["id"] for c in report["checks"] if c["status"] != "pass"]
        if bad or report["summary"] != {"pass": len(want), "fail": 0, "skip": 0}:
            return False, f"not all checks pass: {bad[:3]}"
        return True, ""


# ---------------------------------------------------------------------------
# weyl-products
# ---------------------------------------------------------------------------

def rand_op(rng: random.Random, max_terms: int = 3) -> weyl.WeylOp:
    """One random operator, drawn exactly as the Tier-1 product tests draw it."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = weyl.Monomial.make(rng.randint(-2, 2), rng.randint(-1, 1), rng.randint(0, 2),
                                  (rng.randint(0, 2), rng.randint(0, 2)),
                                  (rng.randint(0, 2), rng.randint(0, 2)),
                                  rng.randint(0, 1))
        c = Coefficient.monomial(
            GaussianRational(F(rng.randint(-3, 3)), F(rng.randint(-3, 3))),
            rng.randint(-1, 1), rng.randint(0, 1))
        terms[mono] = terms.get(mono, Coefficient()) + c
    return weyl.WeylOp(terms)


def tier1_triples(count: int = 100, seed: int = 42) -> List[tuple]:
    """The triples of the Tier-1 associativity and Jacobi test, in its order."""
    rng = random.Random(seed)
    return [(rand_op(rng), rand_op(rng), rand_op(rng)) for _ in range(count)]


class WeylProducts(Workload):
    name = "weyl-products"
    operation = "one triple (a, b, c): (ab)c == a(bc) and the Jacobi sum is zero"
    one_pass = ("the 100 triples of tests/test_weyl.py::test_associativity_and_jacobi_random "
                "(rand_op, random.Random(42))")
    seed_controls = "the order of each pass (and so the 20 triples of a traced pass)"
    verdict = "associativity and the Jacobi identity"
    tail_pct = 90
    trace_ops = 20
    idle_layers = ("linalg", "invariance", "fock")

    def make_pass(self, seed: int, k: int) -> List[Tuple[int, tuple]]:
        """(index in the Tier-1 order, triple) pairs, shuffled."""
        triples = list(enumerate(tier1_triples()))
        pass_rng(seed, k).shuffle(triples)
        return triples

    def key(self, inp) -> int:
        return inp[0]

    def run(self, inp):
        a, b, c = inp[1]
        mul, com = weyl.multiply, weyl.commutator
        associative = mul(mul(a, b), c) == mul(a, mul(b, c))
        jacobi = com(a, com(b, c)) + com(b, com(c, a)) + com(c, com(a, b))
        return associative, jacobi.is_zero()

    def check(self, inp, out) -> Verdict:
        associative, jacobi_zero = out
        if not associative:
            return False, "(ab)c != a(bc)"
        if not jacobi_zero:
            return False, "Jacobi sum is not zero"
        return True, ""


# ---------------------------------------------------------------------------
# fock-states
# ---------------------------------------------------------------------------

VACUUM = {(0, 0): Coefficient.of(1)}
CUTOFFS = range(6, 13)


@dataclass(frozen=True)
class FockInput:
    cutoff: int
    gbar: GaussianRational
    state: Tuple[int, int]  # (n, m) of the formal eigenstate


class FockStates(Workload):
    name = "fock-states"
    operation = ("coupling g = p/q + i r/s and cutoff N: k_matrix(g,N,N) + spectrum, "
                 "eigenstate_matrix(g,N,N), overlap of |1,1> with the vacuum, "
                 "one formal eigenstate(n,m) substituted at g")
    one_pass = "one operation per cutoff N = 6..12"
    seed_controls = "the cutoff order, p, r in -4..4, q, s in 1..7, n in 0..3, m in 0..1"
    verdict = ("eigenvalues n + 3m + 1/2 to 1e-9; full rank; overlap |g|^2/(16 + 9|g|^2) "
               "exactly; formal substituted == numeric")
    min_passes = 10
    idle_layers = ("invariance",)

    def make_pass(self, seed: int, k: int) -> List[FockInput]:
        rng = pass_rng(seed, k)
        cutoffs = list(CUTOFFS)
        rng.shuffle(cutoffs)
        out = []
        for n_cut in cutoffs:
            gbar = GaussianRational(F(rng.randint(-4, 4), rng.randint(1, 7)),
                                    F(rng.randint(-4, 4), rng.randint(1, 7)))
            out.append(FockInput(n_cut, gbar, (rng.randint(0, 3), rng.randint(0, 1))))
        return out

    def key(self, inp: FockInput) -> int:
        return inp.cutoff

    def run(self, inp: FockInput):
        g, n_cut = inp.gbar, inp.cutoff
        spec = fock.spectrum(fock.k_matrix(g, n_cut, n_cut))
        emat = fock.eigenstate_matrix(g, n_cut, n_cut)
        p = fock.overlap_probability(fock.eigenstate(1, 1, g), VACUUM)
        formal = fock.eigenstate(*inp.state)
        substituted = {key: c.substitute(gamma=g) for key, c in formal.items()}
        numeric = fock.eigenstate(*inp.state, g)
        return spec, emat, p, substituted, numeric

    def check(self, inp: FockInput, out) -> Verdict:
        spec, emat, p, substituted, numeric = out
        n_cut = inp.cutoff
        want = np.sort([n + 3 * m + 0.5 for n in range(n_cut + 1) for m in range(n_cut + 1)])
        vals = spec.eigenvalues
        if not (np.allclose(np.sort(vals.real), want, rtol=0, atol=1e-9)
                and float(np.abs(vals.imag).max()) < 1e-9):
            return False, "eigenvalues differ from n + 3m + 1/2"
        rows = sum(1 for n in range(n_cut + 1) for m in range(n_cut + 1) if n + 3 * m <= n_cut)
        if emat.shape != (rows, (n_cut + 1) ** 2) or np.linalg.matrix_rank(emat) != rows:
            return False, f"eigenstate matrix {emat.shape} is not of full rank {rows}"
        a2 = inp.gbar.abs2()
        if p != a2 / (16 + 9 * a2):
            return False, f"overlap {p} != |g|^2/(16 + 9|g|^2)"
        if {k: c for k, c in substituted.items() if not c.is_zero()} != numeric:
            return False, f"formal eigenstate {inp.state} at gbar differs from the numeric one"
        return True, ""


NAMES = ("suite-sweep", "weyl-products", "fock-states")


def make(name: str, workdir: Path) -> Workload:
    """The workload called `name`; `workdir` takes the files it writes."""
    if name == "suite-sweep":
        return SuiteSweep(workdir)
    return {"weyl-products": WeylProducts, "fock-states": FockStates}[name]()

"""The four workloads: inputs made from a seed, one round of operations.

``setup`` builds a workload's inputs (the timed set-up); ``round`` returns
the operations of one round, the same list every round.  An operation's
``call`` makes only calls into superlie (or runs its CLI) and is what gets
timed and traced.  Its ``check`` compares the outputs with the benchmark's
own computation (see oracle.py) or with properties the method must have,
never with saved output, and returns True when the operation passed, False
for a known fault counted in ``failed``, or raises CheckError.

Every workload has a negative control: an operation whose correct verdict
is a failure, so a check that always passes is caught.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import oracle
from oracle import CheckError, require

import superlie
from superlie import affinize, documents, matrixsuper, osp12
from superlie.scalars import GaussianRational, Rat


@dataclass
class Op:
    name: str
    call: Callable[[Any], Any]  # tracer -> outputs
    check: Callable[[Any], bool]
    units: int = 0  # work counted by work_per_s
    subcommand: str | None = None


def negative_control(name: str, call, what: str) -> Op:
    """An operation whose call returns a verdict that must be a failure."""
    def check(failed_as_expected):
        require(failed_as_expected, f"negative control passed: {what}")
        return True
    return Op(name, call, check)


def fails_without_one_root(t, system, index: int) -> bool:
    """Whether check_axioms fails on the system minus one nonzero root.

    It must: the removed root's negative stays, inside the known region, so
    at least the symmetry axiom breaks (the mutation property of criterion
    4).  ``index`` picks the root.
    """
    nonzero = [r for r in system.roots if any(r)]
    removed = nonzero[index % len(nonzero)]
    rest = [r for r in system.roots if r != removed]
    with t.span("rootsys.classify"):
        mutated = superlie.classify(rest, system.form, known=system.known)
    with t.span("rootsys.check_axioms"):
        return not superlie.check_axioms(mutated).passed


# ---------------------------------------------------------------------------
# modules: scramble -> check_representation -> decompose(certify=True)

# Total dimensions of one round's modules.  Criterion 3 of the acceptance
# suite draws 70% of its targets from 3..30 and 20% from 31..60; dimension
# 120 is left out because one such trial takes minutes without gmpy2.  A
# round is short (about 1.5 s) so that a run repeats every operation about
# ten times.
MODULE_TARGETS = (20, 4, 12, 16, 8, 20)
MODULE_TARGETS_SMOKE = (3, 5, 7)
# the highest weights criterion 3 draws from
LAMBDA_CHOICES = (0, 0, 2, 2, 4, 6, 8, 10, 12)


def draw_plan(rng: random.Random, target: int) -> list[tuple[int, int]]:
    """(lam, top parity) summands of total dimension exactly ``target``.

    Summands are drawn as criterion 3 draws them until the next one would
    overflow; the remainder is filled with the largest summands that fit,
    so that every seed decomposes the same total dimension.
    """
    plan, total = [], 0
    while True:
        lam = rng.choice(LAMBDA_CHOICES)
        if total + lam + 1 > target:
            break
        plan.append((lam, rng.randint(0, 1)))
        total += lam + 1
    rest = target - total
    while rest:
        lam = min(12, rest - 1 - (rest - 1) % 2)
        plan.append((lam, rng.randint(0, 1)))
        rest -= lam + 1
    return plan


class Modules:
    name = "modules"
    unit_label = "module_dims_per_s"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.targets = MODULE_TARGETS_SMOKE if smoke else MODULE_TARGETS

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.cases = []
        for target in self.targets:
            plan = draw_plan(rng, target)
            m = superlie.direct_sum([superlie.irreducible_module(lam, par)
                                     for lam, par in plan])
            self.cases.append((m, [lam for lam, _ in plan], rng.randrange(10 ** 6)))
        # the negative control: the round's last module with one h entry
        # bumped, which breaks ef + fe = h whatever else it breaks
        m = self.cases[-1][0]
        n = m.dim
        rows = [[[int(oracle.as_fraction(oracle.entry(mat, i, j))) for j in range(n)]
                 for i in range(n)] for mat in (m.act_e, m.act_f, m.act_h)]
        i = rng.randrange(n)
        j = rng.choice([k for k in range(n) if m.parity[k] == m.parity[i]])
        rows[2][i][j] += 1
        self.perturbed = superlie.Osp12Module(m.parity, *rows)

    def round(self) -> list[Op]:
        ops = [self._decompose_op(m, planted, s) for m, planted, s in self.cases]
        ops.append(negative_control(
            "check_representation on a perturbed module",
            self._check_perturbed, "a perturbed module"))
        return ops

    def _check_perturbed(self, t):
        with t.span("osp12.check_representation"):
            return osp12.check_representation(self.perturbed) is not None

    @staticmethod
    def _decompose_op(m, planted, scramble_seed) -> Op:
        def call(t):
            with t.span("osp12.scramble"):
                sc = superlie.scramble(m, scramble_seed)
            with t.span("osp12.check_representation"):
                msg = osp12.check_representation(sc)
            with t.span("osp12.decompose"):
                summands = superlie.decompose(sc, certify=True)
            return sc, msg, summands

        def check(out):
            sc, msg, summands = out
            require(msg is None, f"scrambled module rejected: {msg}")
            oracle.check_module_decomposition(sc.parity, sc.act_e, sc.act_f,
                                              sc.act_h, summands, planted)
            return True
        return Op(f"decompose dim {m.dim}", call, check, units=m.dim)


# ---------------------------------------------------------------------------
# loop: verify_affinized on windows of the untwisted affinization

BASE_ROOTS = {"osp12": 5, "sl12": 7}  # 0, ±a, ±2a and 0 plus six roots
# (base, torus rank, torus, window radius).  A rank-2 radius-2 window takes
# about 2 s, nearly all in check_axioms, so a round of about 3.5 s, which a
# run repeats four or five times, holds one: osp12 with the trivial torus.
# The other three {osp12, sl12} x {trivial, sign} windows of rank 2 have
# radius 1 (0.35-0.5 s each).  The radius-3 configuration is rank 1.
LOOP_CONFIGS = (("osp12", 2, "trivial", 2), ("osp12", 2, "sign", 1),
                ("sl12", 2, "trivial", 1), ("sl12", 2, "sign", 1),
                ("sl12", 1, "sign", 3))
LOOP_CONFIGS_SMOKE = (("osp12", 1, "trivial", 1), ("sl12", 1, "sign", 1))
LOOP_SAMPLES = 100


def base_algebra(name: str):
    if name == "osp12":
        return superlie.osp12_standard()
    return superlie.sl_superalgebra(superlie.plain_index_set(1, 2))


def torus(kind: str, rank: int):
    if kind == "trivial":
        return superlie.trivial_torus(rank)
    # the uniform q = -1 cocycle, theta(a, b) = (-1)^(sum a_i sum b_j)
    return superlie.CocycleTorus(rank=rank, qmatrix=tuple(
        tuple(Rat(-1) for _ in range(rank)) for _ in range(rank)))


class Loop:
    name = "loop"
    unit_label = "window_roots_per_s"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.configs = LOOP_CONFIGS_SMOKE if smoke else LOOP_CONFIGS
        self.samples = 10 if smoke else LOOP_SAMPLES

    def setup(self) -> None:
        rng = random.Random(self.seed)
        bases = {}
        for name in sorted({c[0] for c in self.configs}):
            L = base_algebra(name)
            bases[name] = (L, superlie.weight_decomposition(L))
        self.cases = []
        for name, rank, kind, radius in self.configs:
            L, datum = bases[name]
            self.cases.append((name, L, datum, torus(kind, rank),
                               superlie.window_box(rank, radius), radius,
                               rng.randrange(10 ** 6)))
        self.removed = rng.randrange(10 ** 6)

    def round(self) -> list[Op]:
        ops = [self._verify_op(*case) for case in self.cases]
        # the smallest window keeps the control cheap
        _, L, datum, tor, degrees, _, _ = min(self.cases, key=lambda c: len(c[4]))

        def control(t):
            alg = superlie.AffinizedAlgebra(L, datum, tor)
            with t.span("affinize.window_root_system"):
                system = affinize.window_root_system(alg, degrees)
            return fails_without_one_root(t, system, self.removed)
        ops.append(negative_control("check_axioms without one window root",
                                    control, "a window system missing a root"))
        return ops

    def _verify_op(self, name, L, datum, tor, degrees, radius, seed) -> Op:
        rank = tor.rank
        want = BASE_ROOTS[name] * (2 * radius + 1) ** rank

        def call(t):
            alg = superlie.AffinizedAlgebra(L, datum, tor)
            with t.span("affinize.verify_affinized"):
                rep = superlie.verify_affinized(alg, degrees, samples=self.samples,
                                                seed=seed)
            with t.span("affinize.affinized_roots"):
                spaces = superlie.affinized_roots(alg, degrees)
            return rep, spaces

        def check(out):
            rep, spaces = out
            require(rep.passed, f"{name} rank {rank} radius {radius} fails: "
                    f"{[c.name for c in rep.failures()]}")
            require(len(spaces) == want,
                    f"{len(spaces)} window roots, expected {want}")
            require(all(len(deg) == rank and max(map(abs, deg)) <= radius
                        for _, deg in spaces), "a window root outside the window")
            return True
        return Op(f"verify_affinized {name} rank {rank} radius {radius}", call,
                  check, units=want)


# ---------------------------------------------------------------------------
# twisted: the BC(1,1) order-4 twisted affinization over Q(i)

# (torus degree radius, Z-grading radius); criterion 7 uses (2, 4).  A
# round of about 2 s, which a run repeats about ten times, holds two
# windows.
TWISTED_WINDOWS = ((1, 1), (0, 3))
TWISTED_WINDOWS_SMOKE = ((0, 1),)
TWISTED_SAMPLES = 100
ZETA = GaussianRational(0, 1)
# The number of distinct averaged weights in the zeta^k eigenspace of # on
# the base algebra, k = 0..3: the zero weight in the even classes, and 2, 6,
# 6 and 6 nonzero weights.  With the trivial rank-1 torus every degree has
# sign +1, so Z-degree z holds WEIGHTS_PER_CLASS[z % 4] weight spaces at
# every torus degree.
WEIGHTS_PER_CLASS = (3, 6, 7, 6)


def sharp_power_is_identity(columns, power: int) -> bool:
    """Whether the matrix with these sparse columns, to this power, is 1."""
    for b in range(len(columns)):
        v = {b: 1}
        for _ in range(power):
            w: dict = {}
            for k, c in v.items():
                for r, x in columns[k].items():
                    w[r] = w.get(r, 0) + c * x
            v = {r: x for r, x in w.items() if x}
        if v != {b: 1}:
            return False
    return True


class Twisted:
    name = "twisted"
    unit_label = "window_roots_per_s"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.windows = TWISTED_WINDOWS_SMOKE if smoke else TWISTED_WINDOWS
        self.samples = 10 if smoke else TWISTED_SAMPLES

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.idx = matrixsuper.SuperIndexSet(i_dot=1, j_dot=1, with_zero_i=True)
        self.aff = matrixsuper.matrix_affinization(self.idx, superlie.trivial_torus(1),
                                                   field="Qi")
        self.sharp = matrixsuper.SharpOperator(self.idx, self.aff)
        self.cases = [(superlie.window_box(1, tr), zr, rng.randrange(10 ** 6))
                      for tr, zr in self.windows]
        self.removed = rng.randrange(10 ** 6)

    def round(self) -> list[Op]:
        ops = [self._verify_op(*case) for case in self.cases]
        ops.insert(1, self._eigenspaces_op(self.cases[0][0]))
        taus, zr, _ = self.cases[0]

        def control(t):
            with t.span("matrixsuper.twisted_affinize"):
                tw = matrixsuper.twisted_affinize(self.aff, self.sharp)
            zs = range(-zr, zr + 1)
            with t.span("matrixsuper.twisted_weight_spaces"):
                spaces = matrixsuper.twisted_weight_spaces(tw, taus, zs)
            with t.span("matrixsuper.twisted_window_root_system"):
                system = matrixsuper.twisted_window_root_system(tw, spaces, taus, zs)
            return fails_without_one_root(t, system, self.removed)
        ops.insert(3, negative_control("check_axioms without one twisted root",
                                       control, "a twisted system missing a root"))
        return ops

    def _verify_op(self, taus, zr, seed) -> Op:
        aff, sh, idx = self.aff, self.sharp, self.idx
        zs = range(-zr, zr + 1)
        want_spaces = len(taus) * sum(WEIGHTS_PER_CLASS[z % 4] for z in zs)

        def call(t):
            with t.span("matrixsuper.twisted_affinize"):
                tw = matrixsuper.twisted_affinize(aff, sh)
            with t.span("matrixsuper.verify_twisted"):
                rep = matrixsuper.verify_twisted(tw, idx, taus, zr,
                                                 samples=self.samples, seed=seed)
            with t.span("matrixsuper.twisted_weight_spaces"):
                spaces = matrixsuper.twisted_weight_spaces(tw, taus, zs)
            with t.span("matrixsuper.sigma_cartan_matrix"):
                sigma = matrixsuper.sigma_cartan_matrix(aff, sh)
            return rep, spaces, sigma

        def check(out):
            rep, spaces, sigma = out
            require(rep.passed, f"twisted window {len(taus)}x{zr} fails: "
                    f"{[c.name for c in rep.failures()]}")
            labels = [c.witness for c in rep.checks if c.name == "type label"]
            require(idx.type_label() == "BC(1,1)" and labels == [{"label": "BC(1,1)"}],
                    f"type label {idx.type_label()}, report {labels}")
            require(sharp_power_is_identity(sh.columns, 4)
                    and not sharp_power_is_identity(sh.columns, 2),
                    "# does not have order 4")
            m = len(aff.base.cartan)
            minus_one = [[oracle.entry(sigma, r, c) - (1 if r == c else 0)
                          for c in range(m)] for r in range(m)]
            fixed = m - oracle.exact_rank(minus_one)
            require(len(spaces) == want_spaces and all(spaces.values()),
                    f"{len(spaces)} weight spaces, expected {want_spaces} nonempty ones")
            zero = [basis for (p, tau, i), basis in spaces.items()
                    if not any(p) and not any(tau) and i == 0]
            want = fixed + 2 * aff.rank + 2
            require(len(zero) == 1 and len(zero[0]) == want,
                    f"(0,0) space of dimension {[len(z) for z in zero]}, expected {want}")
            return True
        return Op(f"verify_twisted taus {len(taus)} z radius {zr}", call, check,
                  units=want_spaces)

    def _eigenspaces_op(self, taus) -> Op:
        def call(t):
            with t.span("matrixsuper.sharp_eigenspaces"):
                return matrixsuper.sharp_eigenspaces(self.aff, self.sharp, taus)

        def check(eig):
            self._check_eigenspaces(eig, taus)
            return True
        return Op(f"sharp_eigenspaces taus {len(taus)}", call, check)

    def _check_eigenspaces(self, eig, taus) -> None:
        """Each degree slice splits into the four eigenspaces of #, exactly."""
        aff, sh = self.aff, self.sharp
        dim = aff.base.dim
        for tau in taus:
            sign = -1 if sum(d for d, s in zip(tau, sh.star_signs) if s == -1) % 2 else 1
            extra = 2 * aff.rank if not any(tau) else 0
            total = sum(len(eig.get((i, tau), ())) for i in range(4))
            require(total == dim + extra,
                    f"eigenspaces at degree {tau} have {total} vectors, expected {dim + extra}")
            for i in range(4):
                z = ZETA ** i
                for x in eig.get((i, tau), ()):
                    if not x.loop:
                        continue
                    image: dict = {}
                    for (b, deg), c in x.loop.items():
                        require(deg == tau, "eigenvector off its degree")
                        for k, v in sh.columns[b].items():
                            image[k] = image.get(k, 0) + sign * c * v
                    want = {b: z * c for (b, _), c in x.loop.items()}
                    require({k: v for k, v in image.items() if v} == want,
                            f"not a zeta^{i} eigenvector of # at degree {tau}")


# ---------------------------------------------------------------------------
# cli: cold-start invocations of every subcommand with --format json

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PROFILE_CHILD = os.path.join(BENCH_DIR, "profile_child.py")


def parse_report(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not JSON: {stdout[:80]!r}") from exc


def check_names(report: dict, status: str) -> list[str]:
    return [c["name"] for c in report["checks"] if c["status"] == status]


def note(report: dict, name: str) -> dict:
    found = [c.get("witness") for c in report["checks"] if c["name"] == name]
    require(len(found) == 1, f"report has no single {name!r} entry")
    return found[0]


class Cli:
    name = "cli"
    unit_label = "cli_cmds_per_s"

    def __init__(self, seed: int, smoke: bool, env: dict, workdir: str):
        self.seed = seed
        self.smoke = smoke
        self.env = env
        self.workdir = workdir
        self.profiles: list[str] = []

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.sum_plan = draw_plan(rng, 7)
        self.scramble_plan = draw_plan(rng, 9)
        self.scramble_seed = rng.randrange(10 ** 6)
        self.affinize_seed = rng.randrange(10 ** 6)
        self.doc_plan = draw_plan(rng, 7)
        m = superlie.scramble(
            superlie.direct_sum([superlie.irreducible_module(lam, par)
                                 for lam, par in self.doc_plan]),
            rng.randrange(10 ** 6))
        self.module_path = os.path.join(self.workdir, "module.json")
        self.algebra_path = os.path.join(self.workdir, "algebra.json")
        documents.save(self.module_path, documents.module_to_dict(m))
        sl12 = superlie.sl_superalgebra(superlie.plain_index_set(1, 2))
        documents.save(self.algebra_path, documents.algebra_to_dict(sl12))

    def round(self) -> list[Op]:
        window = "1" if self.smoke else "2"
        twist_window = ("0", "1") if self.smoke else ("0", "2")
        return [
            self._op(["verify", "builtin:osp12"], 0, self._passes),
            self._op(["verify", "builtin:sl12"], 0, self._passes),
            # negative controls: the heisenberg form is not invariant by
            # design, and osp12-broken has one structure constant bumped
            self._op(["verify", "builtin:heisenberg"], 1, self._fails("invariance")),
            self._op(["verify", "builtin:osp12-broken"], 1, self._fails("anti-supercommutativity")),
            self._op(["roots", "builtin:osp12"], 0, self._roots(5)),
            self._op(["roots", "builtin:sl12"], 0, self._roots(7)),
            self._op(["decompose", "builtin:" + spec(self.sum_plan)], 0,
                     self._lambdas(self.sum_plan)),
            self._op(["decompose", f"builtin:scramble:{spec(self.scramble_plan)}:"
                      f"{self.scramble_seed}"], 0, self._lambdas(self.scramble_plan)),
            self._op(["affinize", "--base", "builtin:osp12", "--rank", "1",
                      "--window", window, "--samples", "50",
                      "--seed", str(self.affinize_seed)], 0,
                     self._window_roots(5 * (2 * int(window) + 1))),
            # the inputs of the known fault do not depend on the seed
            self._op(["twist", "--with-zero", "--rank", "1", "--window", twist_window[0],
                      "--zwindow", twist_window[1], "--samples", "50", "--seed", "0"],
                     0, self._twist),
            self._op(["verify", self.algebra_path], 0, self._passes),
            self._op(["decompose", self.module_path], 0, self._lambdas(self.doc_plan)),
        ]

    def _op(self, args: list[str], want_code: int, check_report) -> Op:
        args = args + ["--format", "json"]
        sub = args[0]

        def call(t):
            if t.profiling:
                path = os.path.join(self.workdir, f"child-{len(self.profiles)}.prof")
                self.profiles.append(path)
                cmd = [sys.executable, PROFILE_CHILD, path, *args]
            else:
                cmd = [sys.executable, "-m", "superlie.cli", *args]
            with t.span(f"cli.{sub}"):
                return subprocess.run(cmd, env=self.env, capture_output=True,
                                      text=True, timeout=150)

        def check(proc):
            require(proc.returncode == want_code,
                    f"superlie {' '.join(args)} exited {proc.returncode}, expected "
                    f"{want_code}: {proc.stderr.strip()[-200:]}")
            return check_report(proc.stdout)
        return Op("superlie " + " ".join(args), call, check, units=1, subcommand=sub)

    @staticmethod
    def _passes(stdout: str) -> bool:
        report = parse_report(stdout)
        require(report["passed"] is True and not check_names(report, "fail"),
                f"{report['title']} fails: {check_names(report, 'fail')}")
        return True

    @staticmethod
    def _fails(name: str):
        def check(stdout: str) -> bool:
            report = parse_report(stdout)
            require(report["passed"] is False and name in check_names(report, "fail"),
                    f"{report['title']}: expected {name!r} to fail, failures "
                    f"{check_names(report, 'fail')}")
            return True
        return check

    @classmethod
    def _roots(cls, count: int):
        def check(stdout: str) -> bool:
            cls._passes(stdout)
            got = note(parse_report(stdout), "roots")["count"]
            require(got == count, f"{got} roots, expected {count}")
            return True
        return check

    @staticmethod
    def _lambdas(plan):
        want = sorted((lam for lam, _ in plan), reverse=True)

        def check(stdout: str) -> bool:
            doc = parse_report(stdout)
            require(doc["lambda"] == want, f"lambda {doc['lambda']}, planted {want}")
            require([len(s["basis"]) for s in doc["summands"]] == [lam + 1 for lam in want],
                    "summand bases of the wrong sizes")
            return True
        return check

    @classmethod
    def _window_roots(cls, count: int):
        def check(stdout: str) -> bool:
            cls._passes(stdout)
            got = note(parse_report(stdout), "window roots")["count"]
            require(got == count, f"{got} window roots, expected {count}")
            return True
        return check

    @classmethod
    def _twist(cls, stdout: str) -> bool:
        """True once stdout is one JSON report; False for the known fault.

        The known fault: ``twist`` writes "type: BC(1,1)" before the JSON,
        so stdout does not parse.  Everything after that line must still be
        a passing report with the BC(1,1) label.
        """
        try:
            report = json.loads(stdout)
            known_fault = False
        except json.JSONDecodeError:
            first, _, rest = stdout.partition("\n")
            require(first == "type: BC(1,1)", f"twist stdout starts {first!r}")
            report = parse_report(rest)
            known_fault = True
        cls._passes(json.dumps(report))
        require(note(report, "type label") == {"label": "BC(1,1)"}, "wrong type label")
        return not known_fault


def spec(plan) -> str:
    return "+".join(f"V{lam}{'odd' if par else ''}" for lam, par in plan)


WORKLOADS = {w.name: w for w in (Modules, Loop, Twisted, Cli)}

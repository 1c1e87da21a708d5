"""Command-line front end.

Subcommands: verify, decompose, roots, affinize, twist.  Documents are JSON
(see documents.py); the path argument also accepts "builtin:<name>" for the
shipped fixtures.  Exit codes: 0 all checks passed, 1 a check failed, 2 the
input could not be read or parsed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

# rootsys, affinize and matrixsuper load only inside the subcommands that run them
from . import documents, fixtures
from .algebra import (NotAWeightBasisError, even_part, structural_root_checks, verify_eals,
                      verify_form, verify_superalgebra, weight_decomposition)
from .osp12 import ModuleError, decompose
from .reports import Report
from .scalars import scalar_from_string

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _load_algebra(path: str):
    if path.startswith("builtin:") or path in fixtures.ALGEBRA_NAMES:
        name = path[len("builtin:"):] if path.startswith("builtin:") else path
        try:
            return fixtures.algebra_fixture(name)
        except KeyError as exc:  # str(KeyError) would quote the message
            raise documents.DocumentError(exc.args[0]) from exc
    return documents.algebra_from_dict(documents.load(path))


def _load_module(path: str):
    import os
    if path.startswith("builtin:") or not os.path.exists(path):
        name = path[len("builtin:"):] if path.startswith("builtin:") else path
        try:
            return fixtures.module_fixture(name)
        except ModuleError as exc:
            raise documents.DocumentError(str(exc)) from exc
        except (KeyError, ValueError) as exc:
            raise documents.DocumentError(
                f"no such file and not a builtin module spec: {path}") from exc
    return documents.module_from_dict(documents.load(path))


def _fail(message: str, fmt: str) -> int:
    """Print a failed precondition (as {"error": ...} under JSON); exit 1."""
    if fmt == "json":
        sys.stdout.write(json.dumps({"error": message}) + "\n")
    else:
        sys.stdout.write(f"error: {message}\n")
    return EXIT_FAIL


def _emit(report: Report, fmt: str, started: float) -> int:
    """Print the report, timed from started, and return its exit code."""
    report.elapsed = time.monotonic() - started
    if fmt == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.render_text())
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_verify(args) -> int:
    from . import rootsys
    started = time.monotonic()
    L = _load_algebra(args.path)
    combined = Report(title=f"verify {args.path}")
    combined.extend(verify_superalgebra(L))
    if L.gram is None:
        combined.skip("bilinear form", {"reason": "no form in document"})
        return _emit(combined, args.format, started)
    combined.extend(verify_form(L))
    if L.cartan is None or L.weights is None:
        combined.skip("weight decomposition", {"reason": "no Cartan/weights"})
        return _emit(combined, args.format, started)
    try:
        datum = weight_decomposition(L)
    except (NotAWeightBasisError, ValueError) as exc:
        combined.check("weight decomposition", False, {"detail": str(exc)})
        return _emit(combined, args.format, started)
    combined.extend(verify_eals(L, datum))
    combined.extend(structural_root_checks(L, datum))
    try:
        system = rootsys.from_root_datum(datum)
    except ValueError as exc:  # say, a Cartan form that is not symmetric
        combined.check("root supersystem of the weights", False, {"detail": str(exc)})
    else:
        combined.extend(rootsys.check_axioms(system))
    even = even_part(L)
    combined.check("even part is a subalgebra",
                   verify_superalgebra(even).passed, None)
    return _emit(combined, args.format, started)


def cmd_decompose(args) -> int:
    m = _load_module(args.path)
    try:
        summands = decompose(m)
    except ModuleError as exc:
        return _fail(str(exc), args.format)
    lams = [lam for lam, _ in summands]
    if args.format == "json":
        doc = {"lambda": lams,
               "summands": [{"lambda": lam,
                             "basis": [[str(v.get(i, 0)) for i in range(m.dim)]
                                       for v in chain]}
                            for lam, chain in summands]}
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(f"lambda: {lams}\n")
        for lam, chain in summands:
            sys.stdout.write(f"  summand lambda={lam} dim={lam + 1}\n")
    return EXIT_PASS


def cmd_roots(args) -> int:
    from . import rootsys
    started = time.monotonic()
    L = _load_algebra(args.path)
    if not verify_superalgebra(L).passed or L.gram is None:
        return _fail("not a verified algebra with a form", args.format)
    try:
        datum = weight_decomposition(L)
    except (NotAWeightBasisError, ValueError) as exc:
        return _fail(str(exc), args.format)
    system = rootsys.from_root_datum(datum)
    report = Report(title=f"roots {args.path}")
    report.note("roots", {"count": len(system.roots),
                          "roots": [list(r) for r in system.roots],
                          "real": [list(r) for r in sorted(system.real_roots)],
                          "nonsingular": [list(r) for r in
                                          sorted(system.nonsingular_roots)],
                          "radical": [list(r) for r in
                                      sorted(system.radical_roots)]})
    report.extend(rootsys.check_axioms(system))
    return _emit(report, args.format, started)


def _torus(args):
    """The trivial torus of rank --rank, or every q-matrix entry set to --q."""
    from . import affinize as affz
    if args.q is None:
        return affz.trivial_torus(args.rank)
    q = tuple(tuple(args.q for _ in range(args.rank)) for _ in range(args.rank))
    return affz.CocycleTorus(rank=args.rank, qmatrix=q)


def cmd_affinize(args) -> int:
    from . import affinize as affz
    started = time.monotonic()
    L = _load_algebra(args.base)
    datum = weight_decomposition(L)
    if not (verify_superalgebra(L).passed and verify_form(L).passed
            and verify_eals(L, datum).passed):
        return _fail("base algebra is not verified", args.format)
    torus = _torus(args)
    degrees = affz.window_box(args.rank, args.window)
    combined = Report(title=f"affinize {args.base} rank={args.rank}",
                      window={"radius": args.window})
    combined.extend(affz.verify_cocycle(torus, degrees))
    alg = affz.AffinizedAlgebra(L, datum, torus)
    combined.extend(affz.verify_affinized(alg, degrees))
    # the window roots verify_affinized certified: every base root at every degree
    roots = [(r, d) for d in degrees for r in datum.roots]
    combined.note("window roots", {
        "count": len(roots),
        "sample": [[list(map(str, r)), list(d)] for (r, d) in sorted(roots, key=str)[:10]]})
    return _emit(combined, args.format, started)


def cmd_twist(args) -> int:
    from . import matrixsuper
    from .affinize import window_box
    started = time.monotonic()
    idx = matrixsuper.SuperIndexSet(i_dot=args.i_dot, j_dot=args.j_dot,
                        with_zero_i=args.with_zero, barred=True)
    torus = _torus(args)
    try:
        aff = matrixsuper.matrix_affinization(idx, torus, field="Qi")
    except matrixsuper.DegenerateFormError as exc:
        return _fail(str(exc), args.format)
    try:
        sh = matrixsuper.SharpOperator(idx, aff, star_signs=args.star_signs)
    except ValueError as exc:  # a --star-signs count that is not --rank
        return _error(f"superlie twist: error: argument --star-signs: {exc}",
                      EXIT_INPUT, args.format)
    tw = matrixsuper.twisted_affinize(aff, sh)
    taus = window_box(args.rank, args.window)
    report = matrixsuper.verify_twisted(tw, idx, taus, args.zwindow)
    if args.format == "text":
        sys.stdout.write(f"type: {idx.type_label()}\n")
    return _emit(report, args.format, started)


def nonnegative_int(text: str) -> int:
    """argparse type: an int >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse type: an int >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def unit_sign(text: str) -> int:
    """argparse type: 1 or -1."""
    value = int(text)
    if value not in (1, -1):
        raise argparse.ArgumentTypeError(f"must be 1 or -1, got {value}")
    return value


def nonzero_scalar(text: str):
    """argparse type: an exact nonzero scalar such as "2", "-1/3" or "1+i"."""
    try:
        value = scalar_from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not value:
        raise argparse.ArgumentTypeError(f"must be nonzero, got {text!r}")
    return value


class UsageError(Exception):
    """A command-line usage error: args are (parser, message)."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError on a usage error so that main can report it in the
    requested format before argparse prints it and exits 2."""

    def error(self, message):
        raise UsageError(self, message)


def _requested_format(argv) -> str:
    """The --format value, read before the full parse so that usage errors
    can be reported in it."""
    pre = _Parser(add_help=False)
    pre.add_argument("--format", default="text")
    try:
        return pre.parse_known_args(argv)[0].format
    except UsageError:
        return "text"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="superlie",
        description="Exact verification toolkit for Lie superalgebras, "
                    "root supersystems, and affinizations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="run the full algebra pipeline")
    p.add_argument("path", help="JSON document or builtin:<name>")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", help="split a module into irreducibles")
    p.add_argument("path", help="JSON module document or builtin:<spec>")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("roots", help="print and check the root system")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("affinize", help="loop-affinize a verified algebra")
    p.add_argument("--base", default="builtin:osp12")
    p.add_argument("--rank", type=nonnegative_int, default=1)
    p.add_argument("--window", type=nonnegative_int, default=3)
    ignored = "ignored: every check is exact"
    p.add_argument("--samples", type=nonnegative_int, default=500, help=ignored)
    p.add_argument("--seed", type=int, default=0, help=ignored)
    p.add_argument("--q", type=nonzero_scalar, default=None,
                   help="off-diagonal cocycle value")
    common(p)
    p.set_defaults(func=cmd_affinize)

    p = sub.add_parser("twist", help="order-4 twisted affinization")
    p.add_argument("--I", dest="i_dot", type=positive_int, default=1)
    p.add_argument("--J", dest="j_dot", type=positive_int, default=1)
    p.add_argument("--with-zero", action="store_true")
    p.add_argument("--rank", type=nonnegative_int, default=1)
    p.add_argument("--window", type=nonnegative_int, default=2, help="torus degree radius")
    p.add_argument("--zwindow", type=nonnegative_int, default=4, help="Z-grading radius")
    p.add_argument("--samples", type=nonnegative_int, default=500, help=ignored)
    p.add_argument("--seed", type=int, default=0, help=ignored)
    p.add_argument("--q", type=nonzero_scalar, default=None)
    p.add_argument("--star-signs", type=unit_sign, nargs="*", default=None)
    common(p)
    p.set_defaults(func=cmd_twist)
    return parser


def _error(message: str, code: int, fmt: str) -> int:
    """An error line on stderr, and {"error": ...} on stdout under JSON."""
    sys.stderr.write(message + "\n")
    if fmt == "json":
        sys.stdout.write(json.dumps({"error": message}) + "\n")
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sub, message = exc.args
        if _requested_format(argv) == "json":
            sys.stdout.write(json.dumps({"error": f"{sub.prog}: error: {message}"}) + "\n")
        argparse.ArgumentParser.error(sub, message)  # usage on stderr, exit 2
    try:
        return args.func(args)
    except documents.DocumentError as exc:
        return _error(f"input error: {exc}", EXIT_INPUT, args.format)
    except (ValueError, KeyError) as exc:
        return _error(f"check error: {exc}", EXIT_FAIL, args.format)


if __name__ == "__main__":
    sys.exit(main())

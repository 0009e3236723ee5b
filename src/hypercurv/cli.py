"""Command line interface.

Subcommands: ``invariants``, ``ladder``, ``classify``, ``scan``, ``simons``,
``immersion-eval``, ``verify-all``.  Every command renders to ``--format``
json (schema-stable, byte-identical for identical inputs and seed), csv, or
table.

Exit codes: 0 on success, 1 on usage or domain errors (bad flags, malformed
input files, values outside mathematical domains), 2 when a verification
fails (a ``verify-all`` check, a scan that contradicts the recorded outcome
of a built-in case, or a certificate that does not survive sampling).  A
reader that closes stdout early also gets exit 1, without a traceback.

Options may come from a ``--config`` JSON file (flag values win over config
values); ``HYPERCURV_SEED`` supplies the seed when no flag or config does.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import cylinders, simons, spectrum
from .errors import DomainError, HypercurvError
from .scalars import Regime, _json_keys, _json_typed, parse_scalar, promote, to_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on misuse; this package reserves 2 for
    # verification failures, so usage errors are rerouted to exit 1.
    def error(self, message):
        raise _UsageError(message)


# Each config key with the rule of its flag: the flag's type, or its choices.
_CONFIG_KEYS = {
    "format": ("json", "csv", "table"), "regime": ("exact", "float"),
    "method": ("analytic", "fd"), "seed": int, "budget": int,
    "samples": int, "tol": float, "h": float,
}


def _given(**values) -> dict:
    """The keyword arguments the user set; the library's defaults fill the rest."""
    return {name: value for name, value in values.items() if value is not None}


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _emit(payload: dict, headers: List[str], rows: List[List[object]], fmt: str):
    if fmt == "json":
        sys.stdout.write(json.dumps(to_json(payload), indent=2, sort_keys=True))
        sys.stdout.write("\n")
        return
    cells = [[_format_cell(v) for v in row] for row in rows]
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(cells)
        return
    widths = [len(h) for h in headers]
    for row in cells:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    sys.stdout.write(line.rstrip() + "\n")
    sys.stdout.write("  ".join("-" * w for w in widths) + "\n")
    for row in cells:
        sys.stdout.write(
            "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")


def _format_cell(value) -> str:
    value = to_json(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _split_list(raw: str) -> List[str]:
    # Every list flag splits one way: entries are stripped, and an empty one
    # ("1,,2", a trailing comma, a blank list) is refused, never dropped.
    items = [piece.strip() for piece in raw.split(",")]
    if not all(items):
        raise DomainError(f"expected a comma-separated list with no empty entries, got {raw!r}")
    return items


def _parse_scalar_list(raw: str, regime: Regime) -> List:
    return [parse_scalar(piece, regime) for piece in _split_list(raw)]


def _parse_float_list(raw: str) -> List[float]:
    # float() keeps the sign of -0.0, which a parameter point must keep.
    items = _split_list(raw)
    try:
        values = [float(piece) for piece in items]
    except ValueError as exc:
        raise DomainError(f"expected comma-separated floats, got {raw!r}") from exc
    if not all(map(math.isfinite, values)):
        raise DomainError(f"expected comma-separated finite floats, got {raw!r}")
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="hypercurv",
                     description="Curvature invariants of hypersurface "
                                 "principal-curvature spectra")
    parser.add_argument("--format", choices=_CONFIG_KEYS["format"], default=None,
                        help="output format (default json)")
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="JSON file of default option values")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("invariants", help="full invariant report of a spectrum")
    p.add_argument("--lambdas", help="comma-separated principal curvatures")
    p.add_argument("--c", default="0", help="ambient curvature (default 0)")
    p.add_argument("--regime", choices=_CONFIG_KEYS["regime"], default=None)
    p.add_argument("--input", metavar="FILE", help="spectrum JSON file")

    p = sub.add_parser("ladder", help="scalar-curvature ladder of dimension n")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("classify", help="match (H, R) against the ladder")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--H", required=True, dest="mean", metavar="H")
    p.add_argument("--R", required=True, dest="scalar", metavar="R")
    p.add_argument("--tol", type=float, default=None,
                   help="float comparison tolerance (omit for exact match)")

    p = sub.add_parser("scan", help="feasibility scan of a constraint system")
    p.add_argument("--case", help="built-in case name")
    p.add_argument("--system", metavar="FILE", help="system JSON file")
    p.add_argument("--H", default="1", dest="mean", metavar="H")
    p.add_argument("--R", default=None, dest="scalar", metavar="R")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=int, default=None, help="grid cells (default 1000000)")
    p.add_argument("--tol", type=float, default=None, help="witness tolerance (default 1e-8)")
    p.add_argument("--samples", type=int, default=None,
                   help="certificate sample count (default 1000)")

    p = sub.add_parser("simons", help="Simons right-hand sides and CMC bracket")
    p.add_argument("--lambdas", help="comma-separated principal curvatures")
    p.add_argument("--c", default="0", help="ambient curvature (default 0)")
    p.add_argument("--regime", choices=_CONFIG_KEYS["regime"], default=None)
    p.add_argument("--grad-a2", default="0", dest="grad_a2", help="|grad A|^2")
    p.add_argument("--hess-h", default=None, dest="hess_h",
                   help="comma-separated Hess H diagonal (default zeros)")
    p.add_argument("--gauss", action="store_true",
                   help="synthesize K_ij from the Gauss equation")
    p.add_argument("--input", metavar="FILE", help="point-data JSON file")

    p = sub.add_parser("immersion-eval", help="principal curvatures of a patch")
    p.add_argument("--shape", help="registry shape name")
    p.add_argument("--shape-cmd", dest="shape_cmd", metavar="ARGV",
                   help="external embedding command (line JSON protocol)")
    p.add_argument("--dim", type=int, default=None, help="parameter dimension n")
    p.add_argument("--radius", default="1")
    p.add_argument("--k", type=int, default=None, help="sphere dimension for cylinder")
    p.add_argument("--coeffs", default=None, help="graph coefficients")
    p.add_argument("--point", default=None, help="comma-separated parameter point")
    p.add_argument("--method", choices=_CONFIG_KEYS["method"], default=None)
    p.add_argument("--h", type=float, default=None, help="finite-difference step")

    p = sub.add_parser("verify-all", help="run every built-in fixture check")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=int, default=None,
                   help="scan grid cells per case (default 200000)")

    return parser


def _merge_config(args: argparse.Namespace):
    config = {}
    if args.config:
        raw = _load_json(args.config)
        if not isinstance(raw, dict):
            raise DomainError(f"config {args.config} must hold a JSON object")
        config = _json_keys(raw, _CONFIG_KEYS, "config")
    for key, value in config.items():
        rule = _CONFIG_KEYS[key]
        try:
            if isinstance(rule, tuple):
                if value not in rule:
                    raise ValueError(value)
            else:
                value = rule(str(value))  # as argparse converts the flag's text
        except ValueError:
            raise DomainError(f"config value {key}={value!r} is not a valid --{key}") from None
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    if getattr(args, "seed", None) is None and os.environ.get("HYPERCURV_SEED"):
        raw_seed = os.environ["HYPERCURV_SEED"]
        try:
            args.seed = int(raw_seed)
        except ValueError as exc:
            raise DomainError(f"HYPERCURV_SEED must be an integer, got {raw_seed!r}") from exc
    if getattr(args, "seed", None) is not None and args.seed < 0:
        raise DomainError(f"the seed must be >= 0, got {args.seed}")
    if getattr(args, "format", None) is None:
        args.format = "json"


def _cmd_invariants(args) -> Tuple[dict, List[str], List[list], int]:
    if args.input:
        spec = spectrum.CurvatureSpectrum.from_json_dict(_load_json(args.input))
    else:
        if not args.lambdas:
            raise _UsageError("invariants needs --lambdas or --input")
        regime = Regime(args.regime or "exact")
        lams = _parse_scalar_list(args.lambdas, regime)
        spec = spectrum.CurvatureSpectrum(lams, parse_scalar(args.c, regime),
                                          regime=regime)
    report = spectrum.invariants(spec)
    payload = {"command": "invariants", "spectrum": spec, "report": report}
    rows = [["n", report.n], ["c", report.c], ["H", report.H], ["R", report.R],
            ["normA2", report.norm_a2], ["normPhi2", report.norm_phi2],
            ["trA3", report.tr_a3], ["trPhi3", report.tr_phi3]]
    rows += [[f"S{r}", value] for r, value in enumerate(report.S)]
    rows += [[f"H{r}", value] for r, value in enumerate(report.Hr)]
    return payload, ["invariant", "value"], rows, EXIT_OK


def _cmd_ladder(args) -> Tuple[dict, List[str], List[list], int]:
    rungs = cylinders.scalar_ladder(args.n)
    entries = []
    rows = []
    for k, ratio in rungs:
        note = cylinders.rigidity_annotation(args.n, k) if args.n >= 3 else None
        entries.append({
            "k": k,
            "ratio": ratio,
            "radiusTimesH": Fraction(k, args.n),
            "status": note.status if note else None,
            "note": note.text if note else None,
        })
        rows.append([k, ratio, Fraction(k, args.n), note.status if note else ""])
    payload = {"command": "ladder", "n": args.n, "rungs": entries}
    return payload, ["k", "R/H^2", "radius*|H|", "status"], rows, EXIT_OK


def _cmd_classify(args) -> Tuple[dict, List[str], List[list], int]:
    if args.tol is None:
        h = parse_scalar(args.mean, Regime.EXACT)
        r = parse_scalar(args.scalar, Regime.EXACT)
    else:
        h = parse_scalar(args.mean, Regime.FLOAT)
        r = parse_scalar(args.scalar, Regime.FLOAT)
    verdict = cylinders.classify(args.n, h, r, tol=args.tol)
    payload = {"command": "classify", "verdict": verdict}
    rows = [
        ["onLadder", verdict.on_ladder],
        ["ratio", verdict.ratio],
        ["k", verdict.k if verdict.k is not None else ""],
        ["model", verdict.model.describe() if verdict.model else ""],
        ["nearestK", verdict.nearest_k],
        ["gap", verdict.gap],
        ["status", verdict.annotation.status],
        ["note", verdict.annotation.text],
    ]
    return payload, ["field", "value"], rows, EXIT_OK


def _cmd_scan(args) -> Tuple[dict, List[str], List[list], int]:
    from . import caseverify

    if bool(args.case) == bool(args.system):
        raise _UsageError("scan needs exactly one of --case or --system")
    if args.seed is None:
        raise _UsageError("scan needs --seed (or HYPERCURV_SEED, or config)")
    if args.case:
        mean = parse_scalar(args.mean, Regime.EXACT)
        scalar = parse_scalar(args.scalar, Regime.EXACT) if args.scalar else None
        system = caseverify.builtin_case(args.case, H=mean, R=scalar)
    else:
        system = caseverify.ConstraintSystem.from_json_dict(_load_json(args.system))
    budget = caseverify.ScanBudget(**_given(grid_points=args.budget))
    verdict = caseverify.scan(system, budget=budget, seed=args.seed, **_given(tol=args.tol))
    expected = caseverify.expected_outcome(system)
    certificate = None
    # certificate margins are asserted for the recorded target ratios only
    if expected is not None and caseverify.has_certificate(system):
        certificate = caseverify.certificate_check(
            system, seed=args.seed, **_given(count=args.samples, tol=args.tol))
    agrees = expected.agrees(verdict) if expected is not None else None
    payload = {
        "command": "scan",
        "system": system,
        "verdict": verdict,
        "expected": expected,
        "agreesWithExpected": agrees,
        "certificate": certificate,
    }
    rows = [["status", verdict.status], ["residual", verdict.residual]]
    if verdict.witness is not None:
        rows.append(["witness", list(verdict.witness)])
    rows.append(["expected", expected.status if expected else ""])
    rows.append(["certificate", (certificate.passed if certificate else "")])
    failed = (agrees is False) or (certificate is not None and not certificate.passed)
    return payload, ["field", "value"], rows, EXIT_VERIFY if failed else EXIT_OK


def _cmd_simons(args) -> Tuple[dict, List[str], List[list], int]:
    if args.input:
        raw = _load_json(args.input)
        if not isinstance(raw, dict):
            raise DomainError(f"point data {args.input} must hold a JSON object")
        try:
            _json_keys(raw, ("spectrum", "gradA2", "hessH", "Kij", "gauss"), "point-data")
            spec = spectrum.CurvatureSpectrum.from_json_dict(raw["spectrum"])
            regime = spec.regime
            grad_a2 = parse_scalar(raw.get("gradA2", 0), regime)
            hess_raw = _json_typed(raw.get("hessH"), list, "hessH", nullable=True)
            hess = None if hess_raw is None else [parse_scalar(v, regime) for v in hess_raw]
            if _json_typed(raw.get("gauss", False), bool, "gauss") or "Kij" not in raw:
                data = simons.SimonsPointData.with_gauss_curvatures(
                    spec, grad_a2=grad_a2, hess_h=hess)
            else:
                table = tuple(tuple(parse_scalar(v, regime)
                                    for v in _json_typed(row, list, "a Kij row"))
                              for row in _json_typed(raw["Kij"], list, "Kij"))
                data = simons.SimonsPointData(spectrum=spec, grad_a2=grad_a2, hess_h=hess,
                                              k_table=table)
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed point-data payload: {exc}") from exc
    else:
        if not args.lambdas:
            raise _UsageError("simons needs --lambdas or --input")
        if not args.gauss:
            raise _UsageError("simons needs --gauss unless --input carries a K table")
        regime = Regime(args.regime or "exact")
        spec = spectrum.CurvatureSpectrum(
            _parse_scalar_list(args.lambdas, regime),
            parse_scalar(args.c, regime), regime=regime)
        hess = tuple(_parse_scalar_list(args.hess_h, regime)) if args.hess_h else None
        data = simons.SimonsPointData.with_gauss_curvatures(
            spec, grad_a2=parse_scalar(args.grad_a2, regime), hess_h=hess)
    general = simons.simons_rhs_general(data)
    space_form = simons.simons_rhs_space_form(data.spectrum, data.grad_a2, data.hess_h)
    rep = spectrum.invariants(data.spectrum)
    bracket = simons.cmc_bracket(rep.n, rep.c, rep.H, promote(rep.norm_phi2) ** 0.5)
    sign = None
    if data.spectrum.regime is Regime.EXACT:
        sign = simons.cmc_bracket_sign(rep.n, rep.c, rep.H, rep.norm_phi2)
    equal = general == space_form if data.spectrum.regime is Regime.EXACT \
        else abs(promote(general) - promote(space_form)) <= 1e-9 * max(
            1.0, abs(promote(general)))
    payload = {
        "command": "simons",
        "data": data,
        "general": general,
        "spaceForm": space_form,
        "formsAgree": equal,
        "normPhi2": rep.norm_phi2,
        "bracket": bracket,
        "bracketSign": sign,
    }
    rows = [["general", general], ["spaceForm", space_form],
            ["formsAgree", equal], ["normPhi2", rep.norm_phi2],
            ["bracket", bracket], ["bracketSign", sign if sign is not None else ""]]
    return payload, ["field", "value"], rows, EXIT_OK


def _cmd_immersion(args) -> Tuple[dict, List[str], List[list], int]:
    from . import immersion

    if bool(args.shape) == bool(args.shape_cmd):
        raise _UsageError("immersion-eval needs exactly one of --shape or --shape-cmd")
    method = args.method
    if args.shape_cmd:
        if args.dim is None:
            raise _UsageError("--shape-cmd needs --dim")
        if method == "analytic":
            raise _UsageError("an external shape has no analytic derivatives; use fd")
        method = "fd"
        point = _parse_float_list(args.point) if args.point \
            else [0.1 * (i + 1) for i in range(args.dim)]
        with immersion.SubprocessShape(args.shape_cmd.split(), args.dim) as shape:
            patch = immersion.finite_difference_lift(shape, point, h=args.h)
        label = {"kind": "subprocess", "argv": shape.argv, "n": args.dim}
    else:
        if args.dim is None:
            raise _UsageError("immersion-eval needs --dim")
        method = method or "analytic"
        radius = parse_scalar(args.radius, Regime.EXACT)
        coeffs = _parse_scalar_list(args.coeffs, Regime.EXACT) if args.coeffs else None
        shape = immersion.make_shape(args.shape, n=args.dim, radius=radius,
                                     k=args.k, coefficients=coeffs)
        point = _parse_float_list(args.point) if args.point \
            else list(immersion.default_point(args.shape, args.dim, k=args.k))
        if method == "analytic":
            patch = shape.patch(point)
        else:
            patch = immersion.finite_difference_lift(shape, point, h=args.h)
        label = {"kind": args.shape, "n": args.dim,
                 "radius": radius, "k": args.k}
    forms = immersion.fundamental_forms(patch)
    spec = immersion.principal_curvatures(patch)
    report = spectrum.invariants(spec)
    payload = {
        "command": "immersion-eval",
        "shape": label,
        "method": method,
        "point": [float(v) for v in patch.point],
        "source": patch.source.value,
        "conditionNumber": forms.condition_number,
        "spectrum": spec,
        "invariants": report,
    }
    rows = [["lambda", list(spec.lambdas)], ["H", report.H], ["R", report.R],
            ["normA2", report.norm_a2], ["cond(J)", forms.condition_number]]
    return payload, ["field", "value"], rows, EXIT_OK


def _cmd_verify_all(args) -> Tuple[dict, List[str], List[list], int]:
    from . import verify

    results = verify.run_builtin_suite(**_given(seed=args.seed, scan_grid_points=args.budget))
    passed = sum(1 for r in results if r.passed)
    failed = len(results) - passed
    payload = {
        "command": "verify-all",
        "checks": results,
        "passed": passed,
        "failed": failed,
    }
    rows = [[r.name, "pass" if r.passed else "FAIL", r.detail] for r in results]
    rows.append(["total", f"{passed}/{len(results)}", ""])
    return payload, ["check", "status", "detail"], rows, \
        EXIT_VERIFY if failed else EXIT_OK


_HANDLERS = {
    "invariants": _cmd_invariants,
    "ladder": _cmd_ladder,
    "classify": _cmd_classify,
    "scan": _cmd_scan,
    "simons": _cmd_simons,
    "immersion-eval": _cmd_immersion,
    "verify-all": _cmd_verify_all,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise _UsageError("missing command; try --help")
        _merge_config(args)
        payload, headers, rows, code = _HANDLERS[args.command](args)
        _emit(payload, headers, rows, args.format)
        return code
    except _UsageError as exc:
        print(f"hypercurv: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypercurvError as exc:
        print(f"hypercurv: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Python flushes stdout
        # once more at exit; point it at devnull so that flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    main()

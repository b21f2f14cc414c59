"""Command-line interface: geometry dumps, orbits, areas, tilings, validation.

``fn`` evaluates Wolpert's form 1/2 sum_k dl_k ^ dtau_k from complex-step
derivatives of the closed-form lengths and twists and compares it with the
closed-form coefficient; its ``wp.fd_*`` keys keep their teich2/v1 names.

Exit codes: 0 success, 1 I/O errors, 2 argument errors (also a tiling radius
outside 0..6, a ball element that float64 cannot represent at the given
point, a NaN or infinite float flag, a size whose arrays numpy cannot
allocate, as from ``area --step``, ``orbit --samples`` or ``validate
--grid``, a ``validate --grid`` side below 1 or a ``--margin`` that rounds
away on the grid's bound lower_a, as 0 does, or an unknown or negative
tolerance), 3 domain errors (octagon parameters outside the admissible
region or within ``--margin`` of its boundary, or an orbit or area perimeter
below the regular value P_reg), 4 validation failure, 5 numerical errors (a
quadrature that does not converge or overflows, an overflow or cancellation,
an orbit point that rounds out of the domain, a point near the corner a = 1,
|alpha_tilde| = pi/4 whose side midpoints round out of the disk, or a float
form that divides by a rounded 0 or meets a math domain error at a point
next to the domain's edge); its line ends with the command's point, if it
has one, as `` at --a A --alpha-tilde T`` (or ``--alpha``).  With
``--format json`` domain errors additionally produce a JSON error object on
stdout.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from typing import Any, Sequence

import numpy as np

from . import isoperimetric as iso
from .errors import DomainError, NumericalError
from .fenchel_nielsen import (
    dt_residuals,
    lt_forms,
    pants_forms,
    wolpert_forms,
    wp_coefficient_raw,
)
from .group import ball, cells, generators, half_turns, relation_pairs, side_pairing_check
from .hyperbolic import classify
from .octagon import (
    OctagonParams,
    _domain_error,
    b_of,
    build_geometry,
    octagon_forms,
    perimeter_ab,
    validate_params,
    vertex_angles,
    vertex_sum,
)
from .serialization import csv_text, json_text, svg_text
from .validation import run_validation

__all__ = ["run", "main"]


def _add_params(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--a", type=float, required=True, help="first octagon parameter")
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--alpha", type=float, help="vertex angle alpha (radians)")
    grp.add_argument(
        "--alpha-tilde", type=float, dest="alpha_tilde",
        help="shifted angle alpha - pi/4 (radians)",
    )
    sp.add_argument(
        "--margin", type=float, default=0.0,
        help="required distance to the domain boundary (default 0)",
    )


def _add_output(sp: argparse.ArgumentParser, formats: Sequence[str]) -> None:
    sp.add_argument("--format", choices=list(formats), default=formats[0])
    sp.add_argument("-o", "--output", default=None, help="output path (default stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teich2",
        description="Genus-2 hyperbolic octagons: geometry, Fuchsian group, "
        "Fenchel-Nielsen data, isoperimetric orbits, WP areas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("octagon", help="geometry dump for one parameter point")
    _add_params(sp)
    _add_output(sp, ("json", "csv", "svg"))

    sp = sub.add_parser("group", help="generators, relation defect, side pairing")
    _add_params(sp)
    sp.add_argument("--samples", type=int, default=500, help="interior sample count")
    sp.add_argument("--seed", type=int, default=0)
    _add_output(sp, ("json", "csv"))

    sp = sub.add_parser("fn", help="Fenchel-Nielsen data and the WP form")
    _add_params(sp)
    _add_output(sp, ("json", "csv"))

    sp = sub.add_parser("orbit", help="isoperimetric orbit samples")
    sp.add_argument(
        "--P", type=float, action="append", dest="perimeters", metavar="P",
        help="target perimeter, repeatable (default 25..41 step 2)",
    )
    sp.add_argument("--samples", type=int, default=256)
    _add_output(sp, ("csv", "json"))

    sp = sub.add_parser("area", help="WP area table and parabola fit")
    sp.add_argument("--p-min", type=float, default=iso.P_REG, dest="p_min")
    sp.add_argument("--p-max", type=float, default=41.0, dest="p_max")
    sp.add_argument("--step", type=float, default=0.5)
    _add_output(sp, ("csv", "json"))

    sp = sub.add_parser("tiling", help="group ball and octagon tiling")
    _add_params(sp)
    sp.add_argument("-n", "--radius", type=int, default=2, help="ball radius")
    sp.add_argument(
        "--vertices", default=None, metavar="PATH",
        help="also write a per-cell vertex CSV to PATH",
    )
    _add_output(sp, ("csv", "json", "svg"))

    sp = sub.add_parser("validate", help="run the full invariant suite")
    sp.add_argument("--grid", type=int, nargs=2, default=[20, 20],
                    metavar=("N_A", "N_ALPHA"))
    sp.add_argument("--margin", type=float, default=0.02)
    sp.add_argument("--seed", type=int, default=0,
                    help="echoed in the report and unused; kept for the teich2/v1 schema")
    sp.add_argument(
        "--tolerance", action="append", default=[], metavar="NAME=VALUE",
        help="override a named tolerance, repeatable",
    )
    _add_output(sp, ("json",))
    return parser


_PARSER = _build_parser()


def _params_from_args(args: argparse.Namespace) -> OctagonParams:
    if args.alpha is not None:
        return validate_params(args.a, args.alpha - math.pi / 4, args.margin)
    return validate_params(args.a, args.alpha_tilde, args.margin)


def _flatten(value: Any, prefix: str, keys: list[str], values: list[Any]) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{prefix}.{key}" if prefix else str(key), keys, values)
    elif isinstance(value, (list, tuple)):
        for k, item in enumerate(value):
            _flatten(item, f"{prefix}[{k}]", keys, values)
    elif isinstance(value, complex):
        keys += (f"{prefix}.re", f"{prefix}.im")
        values += (value.real, value.imag)
    else:
        keys.append(prefix)
        values.append(value)


def _write(path: str | None, text: str) -> None:
    """Write text to stdout for path None or "-", else to a UTF-8 file, as is."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_payload(args: argparse.Namespace, payload: dict[str, Any]) -> None:
    if args.format == "json":
        _write(args.output, json_text(payload))
        return
    keys: list[str] = []
    values: list[Any] = []
    _flatten(payload, "", keys, values)
    _write(args.output, csv_text(("key", "value"), (keys, values)))


def _params_block(params: OctagonParams) -> dict[str, float]:
    a, at = params.a, params.alpha_tilde
    return {"a": a, "alpha": at + math.pi / 4, "alpha_tilde": at, "b": b_of(a, at)}


def _octagon_payload(params: OctagonParams) -> dict[str, Any]:
    geom = build_geometry(params)
    p_closed = perimeter_ab(params.a, geom.b)
    p_sum = vertex_sum(geom.vertices)
    ang0, ang1 = (vertex_angles(geom.vertices, geom.centres, k) for k in (0, 1))
    area = 6.0 * math.pi - 4.0 * (ang0 + ang1)
    return {
        "params": _params_block(params),
        "beta": geom.beta,
        "arcs": {
            "r_plus": geom.r_plus,
            "r_minus": geom.r_minus,
            "phi_plus": geom.phi_plus,
            "phi_minus": geom.phi_minus,
            "t_plus": geom.t_plus,
            "t_minus": geom.t_minus,
        },
        "omega": {
            "plus": geom.omega_plus,
            "minus": geom.omega_minus,
            "omega4": geom.omega4,
        },
        "vertices": list(geom.vertices),
        "midpoints": list(geom.midpoints),
        "perimeter": {
            "closed_form": p_closed,
            "vertex_sum": p_sum,
            "residual": abs(p_closed - p_sum),
        },
        "angles": {
            "at_even_vertices": ang0,
            "at_odd_vertices": ang1,
            "sum": 4.0 * (ang0 + ang1),
            "area": area,
            "area_residual": abs(area - 4.0 * math.pi),
        },
    }


def _cmd_octagon(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    if args.format == "svg":
        geom = build_geometry(params)
        _write(args.output, svg_text(np.array([geom.vertices]), np.array([geom.midpoints])))
        return 0
    _write_payload(args, _octagon_payload(params))
    return 0


def _cmd_group(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    geom = build_geometry(params)
    g = generators(params)
    defect, sign = relation_pairs(g)
    endpoint, midpoint, violations = side_pairing_check(
        geom, g, samples=args.samples, seed=args.seed)
    payload = {
        "params": _params_block(params),
        "generators": [
            {"label": f"g{k}", "u": complex(u), "v": complex(v), "trace": 2.0 * u.real,
             "class": classify(u)}
            for k, (u, v) in enumerate(g)
        ],
        "relation": {"defect": defect, "sign": sign},
        "side_pairing": {
            "endpoint_residual": endpoint,
            "midpoint_residual": midpoint,
            "interior_samples": args.samples,
            "interior_violations": violations,
        },
    }
    _write_payload(args, payload)
    return 0


def _cmd_fn(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    a, at = params.a, params.alpha_tilde
    coeff = wp_coefficient_raw(a, at)
    summands, primed = wolpert_forms(a, at)
    value = sum(summands)
    payload: dict[str, Any] = {"params": _params_block(params)}
    for label, (x, y) in (("unprimed", (a, at)), ("primed", (b_of(a, at), -at))):
        data = pants_forms(x, y, half_turns(octagon_forms(x, y)))
        payload[label] = {
            "lengths": list(data.lengths),
            "twists": list(data.twists),
            "c": list(data.c),
            "d": list(data.d),
            "p_aux": data.p_aux,
            "dt_residuals": list(dt_residuals(data)),
        }
    payload["lt_relations"] = asdict(lt_forms(a, at))
    payload["wp"] = {
        "coefficient": coeff,
        "fd_value": value,
        "fd_summands": list(summands),
        "fd_relative_error": abs(value - coeff) / coeff,
        "fd_primed_value": sum(primed),
    }
    _write_payload(args, payload)
    return 0


def _cmd_orbit(args: argparse.Namespace) -> int:
    orbits = []
    for p_target in args.perimeters or iso._ORBIT_PERIMETERS:
        e = iso.e_of_p(p_target)
        phi = iso._phases(args.samples)
        a, at = iso.orbit_forms(e, phi)
        found = _domain_error(a, at, 0.0)
        if found is not None:  # exact orbit points of P > P_reg lie inside the domain
            k, exc = found
            raise NumericalError(
                f"orbit point at phi = {float(phi[k])!r} rounds out of the domain: {exc}"
            )
        orbits.append((p_target, e, (phi, a, at, perimeter_ab(a, b_of(a, at)))))
    if args.format == "json":
        keys = ("phi", "a", "alpha_tilde", "p_check")
        _write(args.output, json_text({"orbits": [
            {"p_target": p_target, "e": e,
             "samples": [dict(zip(keys, row)) for row in zip(*(c.tolist() for c in table))]}
            for p_target, e, table in orbits
        ]}))
        return 0
    _write(args.output, csv_text(
        ("phi", "a", "alpha_tilde", "P_check"),
        [np.concatenate(column) for column in zip(*(table for _, _, table in orbits))],
    ))
    return 0


def _cmd_area(args: argparse.Namespace) -> int:
    fit = iso.parabola_fit(args.p_min, args.p_max, args.step)
    if args.format == "json":
        _write(args.output, json_text({
            "fit": {"c1": fit.c1, "c2": fit.c2,
                    "residual_norm": fit.residual_norm},
            "p_reg": iso.P_REG,
            "table": [
                {"P": p, "area": area}
                for p, area in zip(fit.p_values, fit.areas)
            ],
        }))
        return 0
    _write(args.output, csv_text(("P", "area"), (fit.p_values, fit.areas)))
    print(
        f"fit: c1={fit.c1:.6g} c2={fit.c2:.6g} residual={fit.residual_norm:.3g}",
        file=sys.stderr,
    )
    return 0


def _cmd_tiling(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    g = generators(params)
    b = ball(g, args.radius)
    if args.format == "svg" or args.vertices is not None:
        vertices, midpoints = cells(b, build_geometry(params))
    if args.format == "svg":
        _write(args.output, svg_text(vertices, midpoints))
    elif args.format == "json":
        _write(args.output, json_text({
            "radius": args.radius,
            "count": len(b),
            "relation_sign": relation_pairs(g)[1],
            "elements": [
                {"word": word, "u": u, "v": v}
                for word, u, v in zip(b.shortlex, b.u.tolist(), b.v.tolist())
            ],
        }))
    else:
        _write(args.output, csv_text(("word", "u_re", "u_im", "v_re", "v_im"),
                                     (b.shortlex, b.u.real, b.u.imag, b.v.real, b.v.imag)))
    if args.vertices is not None:
        n, k = vertices.shape
        _write(args.vertices, csv_text(("word", "k", "x", "y"), (
            [word for word in b.shortlex for _ in range(k)], [str(j) for j in range(k)] * n,
            vertices.real.ravel(), vertices.imag.ravel(),
        )))
    return 0


def _parse_tolerances(items: list[str]) -> dict[str, float]:
    """{NAME: VALUE} of the NAME=VALUE items; run_validation checks the names."""
    out: dict[str, float] = {}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"expected NAME=VALUE, got {item!r}")
        out[name] = float(value)
    return out


def _cmd_validate(args: argparse.Namespace) -> int:
    tols = _parse_tolerances(args.tolerance)
    report = run_validation(
        n_a=args.grid[0], n_alpha=args.grid[1], margin=args.margin,
        seed=args.seed, tolerances=tols,
    )
    _write(args.output, json_text(report))
    for check in report["checks"]:
        status = "ok  " if check["passed"] else "FAIL"
        print(
            f'{status} {check["name"]:24s} max {check["max_residual"]:.3e} '
            f'tol {check["tolerance"]:.1e}',
            file=sys.stderr,
        )
    return 0 if report["passed"] else 4


_COMMANDS = {
    "octagon": _cmd_octagon,
    "group": _cmd_group,
    "fn": _cmd_fn,
    "orbit": _cmd_orbit,
    "area": _cmd_area,
    "tiling": _cmd_tiling,
    "validate": _cmd_validate,
}


def run(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code.

    argv defaults to sys.argv[1:]; argparse itself exits with 2 on a bad
    flag.  run may be called any number of times in one process: every call
    parses with the same parser, built once at import.
    """
    args = _PARSER.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"teich2: domain error: {exc}", file=sys.stderr)
        if getattr(args, "format", None) == "json":
            _write(None, json_text({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 3
    except (ValueError, MemoryError) as exc:  # MemoryError: a size numpy cannot allocate
        print(f"teich2: argument error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"teich2: i/o error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, ZeroDivisionError) as exc:  # ZeroDivisionError: by a rounded 0
        point = "".join(f" --{dest.replace('_', '-')} {getattr(args, dest)!r}"
                        for dest in ("a", "alpha", "alpha_tilde")
                        if getattr(args, dest, None) is not None)
        print(f"teich2: numerical error: {exc}{' at' if point else ''}{point}", file=sys.stderr)
        return 5


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

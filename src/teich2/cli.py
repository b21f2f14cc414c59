"""Command-line interface: geometry dumps, orbits, areas, tilings, validation.

``fn`` evaluates Wolpert's form 1/2 sum_k dl_k ^ dtau_k from complex-step
derivatives of the closed-form lengths and twists and compares it with the
closed-form coefficient; its ``wp.fd_*`` keys keep their teich2/v1 names.

Each point command takes its point as ``--a`` and ``--alpha-tilde``, and
every flag only as spelled: argparse refuses a prefix of one.  Each run
writes one output, by one route: the octagon alone is ``tiling -n 0
--format svg``, the cell vertices are ``tiling --format vertices``, and
``validate`` writes JSON only, so it takes no ``--format``.

Exit codes: 0 success, 1 I/O errors, 2 argument errors (also an unknown or
abbreviated flag, a tiling radius outside 0..6, a NaN or infinite float
flag, a size whose arrays numpy cannot allocate, as from ``area --step``,
``orbit --samples`` or ``validate --grid``, a ``validate --grid`` side below
1, or a ``validate --margin`` outside [0, (1 - 1/sqrt2)/2), the margins that
leave a grid, or one that puts a grid row's first a on its bound lower_a as
the forms see it, as 0 and 1e-16 do), 3 domain errors (octagon parameters
outside the admissible region, or an orbit or area perimeter below the
regular value P_reg), 4 validation failure, 5 numerical errors (a quadrature
that does not converge or overflows, an overflow or cancellation, an orbit
point that rounds out of the domain, a point where the forms' X rounds to 0
or below, a float form that divides by a rounded 0 or meets a math domain
error next to the domain's edge, ``group`` and ``tiling`` generators with
kappa^2 past group._MAX_SIZE, kappa = max_k (|u_k|^2 + |v_k|^2), or a
``tiling`` ball element past the float64 precision limit at the given
point); its line ends with the command's point, if it has one, as
`` at --a A --alpha-tilde T``. With ``--format json``, and from
``validate``, domain errors additionally produce a JSON error object on
stdout.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Any, Iterable, Sequence

from . import isoperimetric as iso
from ._elementwise import np
from .errors import DomainError, NumericalError
from .fenchel_nielsen import (
    dt_residuals,
    lt_forms,
    pants_forms,
    wolpert_forms,
    wp_coefficient_raw,
)
from .group import (_MAX_SIZE, ball, cells, generators, half_turns, relation_defect,
                    side_pairing_check)
from .octagon import (
    OctagonParams,
    _domain_error,
    b_of,
    build_geometry,
    octagon_forms,
    perimeter_ab,
    vertex_angles,
    vertex_sum,
)
from .serialization import _Table, csv_blocks, json_text, svg_blocks
from .validation import run_validation

__all__ = ["run", "main"]


def _add_params(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--a", type=float, required=True, help="first octagon parameter")
    sp.add_argument("--alpha-tilde", type=float, required=True, dest="alpha_tilde",
                    help="shifted angle alpha - pi/4 (radians)")


def _add_output(sp: argparse.ArgumentParser, formats: Sequence[str]) -> None:
    if formats:  # validate writes JSON only and takes no --format
        sp.add_argument("--format", choices=list(formats), default=formats[0])
    sp.add_argument("-o", "--output", default=None, help="output path (default stdout)")


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a flag is taken only as spelled, so a prefix such as
    # --alpha is refused, not read as --alpha-tilde
    parser = argparse.ArgumentParser(
        prog="teich2",
        description="Genus-2 hyperbolic octagons: geometry, Fuchsian group, "
        "Fenchel-Nielsen data, isoperimetric orbits, WP areas.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    sp = add("octagon", help="geometry dump for one parameter point")
    _add_params(sp)
    _add_output(sp, ("json", "csv"))

    sp = add("group", help="generators, relation defect, side pairing")
    _add_params(sp)
    sp.add_argument("--samples", type=int, default=500, help="interior sample count")
    sp.add_argument("--seed", type=int, default=0)
    _add_output(sp, ("json", "csv"))

    sp = add("fn", help="Fenchel-Nielsen data and the WP form")
    _add_params(sp)
    _add_output(sp, ("json", "csv"))

    sp = add("orbit", help="isoperimetric orbit samples")
    sp.add_argument(
        "--P", type=float, action="append", dest="perimeters", metavar="P",
        help="target perimeter, repeatable (default 25..41 step 2)",
    )
    sp.add_argument("--samples", type=int, default=256)
    _add_output(sp, ("csv", "json"))

    sp = add("area", help="WP area table and parabola fit")
    sp.add_argument("--p-min", type=float, default=iso.P_REG, dest="p_min")
    sp.add_argument("--p-max", type=float, default=41.0, dest="p_max")
    sp.add_argument("--step", type=float, default=0.5)
    _add_output(sp, ("csv", "json"))

    sp = add("tiling", help="group ball and octagon tiling")
    _add_params(sp)
    sp.add_argument("-n", "--radius", type=int, default=2, help="ball radius")
    _add_output(sp, ("csv", "json", "svg", "vertices"))

    sp = add("validate", help="run the full invariant suite")
    sp.add_argument("--grid", type=int, nargs=2, default=[20, 20],
                    metavar=("N_A", "N_ALPHA"))
    sp.add_argument("--margin", type=float, default=0.02)
    sp.add_argument("--seed", type=int, default=0,
                    help="echoed in the report and unused; kept for the teich2/v1 schema")
    _add_output(sp, ())
    return parser


_PARSER = _build_parser()


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


def _write(path: str | None, blocks: Iterable[bytes]) -> None:
    """Write the UTF-8 blocks, one at a time as they come, to stdout as text
    for path None or "-", else to the file as bytes."""
    if path is None or path == "-":
        for block in blocks:
            sys.stdout.write(block.decode())
        return
    with open(path, "wb") as fh:
        fh.writelines(blocks)


def _write_payload(args: argparse.Namespace, payload: dict[str, Any]) -> None:
    if args.format == "json":
        _write(args.output, [json_text(payload).encode()])
        return
    keys: list[str] = []
    values: list[Any] = []
    _flatten(payload, "", keys, values)
    _write(args.output, csv_blocks(("key", "value"), [(keys, values)]))


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
    _write_payload(args, _octagon_payload(OctagonParams(args.a, args.alpha_tilde)))
    return 0


def _representable(g):
    """g, or NumericalError where max_k (|u_k|^2 + |v_k|^2) squared passes _MAX_SIZE."""
    kappa = max(abs(u) ** 2 + abs(v) ** 2 for u, v in g)
    if not kappa * kappa <= _MAX_SIZE:
        raise NumericalError(f"generators: kappa^2 = {kappa * kappa!r} is past 1/(16 eps)")
    return g


def _cmd_group(args: argparse.Namespace) -> int:
    params = OctagonParams(args.a, args.alpha_tilde)
    g = _representable(generators(params))
    geom = build_geometry(params)
    endpoint, midpoint, violations = side_pairing_check(
        geom, g, samples=args.samples, seed=args.seed)
    payload = {
        "params": _params_block(params),
        "generators": [
            # |trace| >= 2 sqrt2 at every (a, alpha_tilde), proven
            {"label": f"g{k}", "u": complex(u), "v": complex(v), "trace": 2.0 * u.real,
             "class": "hyperbolic"}
            for k, (u, v) in enumerate(g)
        ],
        "relation": {"defect": relation_defect(g), "sign": 1},  # +identity, proven
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
    params = OctagonParams(args.a, args.alpha_tilde)
    a, at = params.a, params.alpha_tilde
    coeff = wp_coefficient_raw(a, at)
    summands, primed = wolpert_forms(a, at)
    value = sum(summands)
    payload: dict[str, Any] = {"params": _params_block(params)}
    for label, (x, y) in (("unprimed", (a, at)), ("primed", (b_of(a, at), -at))):
        pants = pants_forms(x, y, half_turns(octagon_forms(x, y)))
        lengths, twists, c, d, p_aux = pants
        payload[label] = {
            "lengths": list(lengths),
            "twists": list(twists),
            "c": list(c),
            "d": list(d),
            "p_aux": p_aux,
            "dt_residuals": list(dt_residuals(pants)),
        }
    payload["lt_relations"] = dict(zip(
        ("residual_l3", "residual_tau3", "residual_l1_primed", "residual_t1_primed"),
        lt_forms(a, at),
    ))
    payload["wp"] = {
        "coefficient": coeff,
        "fd_value": value,
        "fd_summands": list(summands),
        "fd_relative_error": abs(value - coeff) / coeff,
        "fd_primed_value": sum(primed),
    }
    _write_payload(args, payload)
    return 0


def _orbits(targets: Sequence[float], samples: int):
    """phi, the list of E, and the (targets, samples) arrays a, alpha_tilde and
    P_check of the orbits of ``targets`` in one pass.  E is refused target by target,
    after the orbit points of the targets before, as a loop over them would."""
    e = []
    for j, p_target in enumerate(targets):
        try:
            e.append(iso.e_of_p(p_target))
            iso._discriminant(e[-1])
        except (ValueError, NumericalError):
            if j:  # the targets before pass their E, and may fail later
                _orbits(targets[:j], samples)
            raise
    phi = iso._phases(samples)
    a, at = iso.orbit_forms(np.array(e)[:, None], phi)
    exc = _domain_error(a, at)
    if exc is not None:  # exact orbit points of P > P_reg lie inside the domain
        phi_k = float(phi[exc.index % samples])
        raise NumericalError(f"orbit point at phi = {phi_k!r} rounds out of the domain: {exc}")
    return phi, e, a, at, perimeter_ab(a, b_of(a, at))


def _cmd_orbit(args: argparse.Namespace) -> int:
    targets = args.perimeters or iso._ORBIT_PERIMETERS
    phi, e, a, at, p_check = _orbits(targets, args.samples)
    if args.format == "json":
        keys = ("phi", "a", "alpha_tilde", "p_check")
        _write(args.output, [json_text({"orbits": [
            {"p_target": p_target, "e": e_j, "samples": _Table(keys, (phi, *table))}
            for p_target, e_j, *table in zip(targets, e, a, at, p_check)
        ]}).encode()])
        return 0
    _write(args.output, csv_blocks(
        ("phi", "a", "alpha_tilde", "P_check"),
        [(np.tile(phi, len(targets)), a.ravel(), at.ravel(), p_check.ravel())],
    ))
    return 0


def _cmd_area(args: argparse.Namespace) -> int:
    c1, c2, residual_norm, p_values, areas = iso.parabola_fit(
        args.p_min, args.p_max, args.step
    )
    if args.format == "json":
        _write(args.output, [json_text({
            "fit": {"c1": c1, "c2": c2, "residual_norm": residual_norm},
            "p_reg": iso.P_REG,
            "table": _Table(("P", "area"), (p_values, areas)),
        }).encode()])
        return 0
    _write(args.output, csv_blocks(("P", "area"), [(p_values, areas)]))
    print(f"fit: c1={c1:.6g} c2={c2:.6g} residual={residual_norm:.3g}", file=sys.stderr)
    return 0


def _cmd_tiling(args: argparse.Namespace) -> int:
    params = OctagonParams(args.a, args.alpha_tilde)
    g = _representable(generators(params))
    # the forms before the ball, in every format: where they break, tiling
    # exits with the numerical error of octagon and group
    geom = build_geometry(params)
    b = ball(g, args.radius)
    if args.format == "json":
        blocks = [json_text({
            "radius": args.radius,
            "count": len(b),
            "relation_sign": 1,  # proven, as group's relation.sign
            "elements": [
                {"word": word, "u": u, "v": v}
                for word, u, v in zip(b.shortlex, b.u.tolist(), b.v.tolist())
            ],
        }).encode()]
    elif args.format == "csv":
        blocks = csv_blocks(("word", "u_re", "u_im", "v_re", "v_im"),
                            [(b.shortlex, b.u.real, b.u.imag, b.v.real, b.v.imag)])
    elif args.format == "svg":
        blocks = svg_blocks(cells(b, geom))
    else:
        blocks = csv_blocks(("word", "k", "x", "y"), _vertex_rows(b.shortlex, cells(b, geom)))
    _write(args.output, blocks)
    return 0


def _vertex_rows(words: Sequence[str], images):
    """The (word, k, x, y) columns of each block of cell images, a row per vertex."""
    start = 0
    for vertices, _ in images:
        n = len(vertices)
        yield ([w for w in words[start:start + n] for _ in range(8)],
               [str(k) for k in range(8)] * n, vertices.real.ravel(), vertices.imag.ravel())
        start += n


def _cmd_validate(args: argparse.Namespace) -> int:
    report = run_validation(args.grid[0], args.grid[1], args.margin, args.seed)
    _write(args.output, [json_text(report).encode()])
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
        if getattr(args, "format", "json") == "json":  # validate writes JSON only
            _write(None, [json_text({"error": {"type": type(exc).__name__,
                                               "message": str(exc)}}).encode()])
        return 3
    except (NumericalError, ZeroDivisionError) as exc:  # ZeroDivisionError: by a rounded 0
        # before ValueError: the ball's precision refusal is both
        point = (f" at --a {args.a!r} --alpha-tilde {args.alpha_tilde!r}"
                 if hasattr(args, "alpha_tilde") else "")
        print(f"teich2: numerical error: {exc}{point}", file=sys.stderr)
        return 5
    except (ValueError, MemoryError) as exc:  # MemoryError: a size numpy cannot allocate
        print(f"teich2: argument error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"teich2: i/o error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

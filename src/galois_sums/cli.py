"""Command-line front end.

Subcommands: ring, chars, gauss, jacobi, tilde-jacobi, codebook, table2,
verify; gauss, jacobi and tilde-jacobi share one report.  Exit codes are a
stable contract: 0 success, 2 bad input or an unwritable output path, 3 a
resource cap was exceeded, 4 a verification failed.  Characters are named on
the command line by their exponent tuple against the printed unit-group
basis; ring elements by coordinates ("3,1") or by the tokens 0, 1, p, p^2...
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .characters import (
    DEFAULT_TERM_CAP,
    SECTIONS,
    MultCharacter,
    character_table_json,
    decompose_unit_group,
    section_json,
)
from .codebook import (
    DEFAULT_PAIR_BUDGET,
    TWIST_MODES,
    CodebookParams,
    build_codebook,
    check_pair_budget,
    codebook_size,
    export_codebook,
    imax_exhaustive,
    named_twist,
    table2,
)
from .errors import GaloisSumsError, SizeLimit, TooLarge
from .ring import DEFAULT_ELEMENT_CAP, GaloisRing, RingElement, build_ring
from .sums import (
    SumValue,
    gauss_sum,
    jacobi,
    tilde_jacobi_brute,
    tilde_jacobi_classify,
)
from .verify import SEEDED_SUITES, SUITES, run_suite

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4


def _cap(text: str) -> int:
    """A resource cap: an integer of at least 1, else a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"a cap must be an integer of at least 1, got {text!r}")
    return value


def _add_ring_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-p", type=int, required=True, help="prime")
    sub.add_argument("-n", type=int, required=True, help="characteristic exponent")
    sub.add_argument("-s", type=int, required=True, help="extension degree")
    sub.add_argument(
        "--modulus",
        help="comma-separated ascending coefficients of the modulus polynomial",
    )
    sub.add_argument("--cap-elements", type=_cap, default=DEFAULT_ELEMENT_CAP)


# options a subcommand takes only when it reads them, so that an ignored
# option is a usage error (exit 2) rather than silently dropped
OPTIONS = {
    "--cap-terms": dict(type=_cap, default=DEFAULT_TERM_CAP, help="term cap per brute-force sum"),
    "--cap-pairs": dict(
        type=_cap,
        default=DEFAULT_PAIR_BUDGET,
        help="pair budget of the correlation scan, counted as N(N-1)/2 * K pair entries:"
        " more than the scan multiplies, which skips single rows and structural zeros",
    ),
    "--tol": dict(type=float, default=1e-9, help="agreement tolerance"),
    "--seed": dict(type=int, default=None, help="seed of the randomized suites"),
}


def _add_common(sub: argparse.ArgumentParser, *options: str) -> None:
    sub.add_argument("--json", action="store_true", help="emit JSON")
    sub.add_argument("--out", help="write output to this path")
    for name in options:
        sub.add_argument(name, **OPTIONS[name])


def _build_ring(args) -> GaloisRing:
    modulus = tuple(int(c) for c in args.modulus.split(",")) if args.modulus else None
    return build_ring(args.p, args.n, args.s, modulus=modulus, element_cap=args.cap_elements)


def _parse_element(ring: GaloisRing, text: str) -> RingElement:
    text = text.strip()
    if text == "0":
        return ring.zero
    if text == "1":
        return ring.one
    if text == "p":
        return ring.p_power(1)
    if text.startswith("p^"):
        return ring.p_power(int(text[2:]))
    return ring.element(tuple(int(c) for c in text.split(",")))


def _parse_chars(ring: GaloisRing, text: str) -> list[MultCharacter]:
    out = []
    for part in text.split(";"):
        exps = tuple(int(c) for c in part.split(","))
        out.append(MultCharacter(ring, exps))
    return out


def _emit(args, payload: dict, text: str) -> None:
    body = json.dumps(payload, indent=2) if args.json else text
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body + "\n")
    else:
        print(body)


def cmd_ring(args) -> int:
    ring = _build_ring(args)
    basis = decompose_unit_group(ring)
    payload = {
        "ring": ring.to_json(),
        "element_count": ring.element_count,
        "unit_count": ring.unit_count,
        "teichmuller_set": [list(t.coords) for t in ring.teich_set],
        "unit_group_basis": [
            {"generator": list(g.coords), "order": d}
            for g, d in zip(basis.generators, basis.orders)
        ],
    }
    lines = [
        f"ring: {ring}",
        f"|R| = {ring.element_count}, |R*| = {ring.unit_count}",
        "Teichmuller set: " + ", ".join(str(t.coords) for t in ring.teich_set),
        "unit-group basis: "
        + ", ".join(
            f"{g.coords} (order {d})" for g, d in zip(basis.generators, basis.orders)
        ),
    ]
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_chars(args) -> int:
    ring = _build_ring(args)
    payload = {
        "ring": ring.to_json(),
        "characters": character_table_json(ring),
    }
    if ring.n >= 2:
        payload["section"] = section_json(ring)
    lines = [f"{len(payload['characters'])} multiplicative characters"]
    for entry in payload["characters"]:
        lines.append(f"  exponents {tuple(entry['exponents'])}  level {entry['triviality_level']}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _report_sum(args, ring: GaloisRing, symbol: str, sv: SumValue) -> int:
    """A sum against its law; it agrees within the larger of --tol and its term tolerance."""
    agree = sv.agrees(ring.q, max(args.tol, sv.tolerance))
    law = f"expected {sv.expected.kind} ({sv.expected.lemma})"
    text = f"{symbol} = {sv.value:.12g}  {law}  terms {sv.terms}  agree: {agree}"
    _emit(args, {"ring": ring.to_json(), **sv.to_json(), "agree": agree}, text)
    return EXIT_OK if agree else EXIT_VERIFY


def cmd_gauss(args) -> int:
    ring = _build_ring(args)
    chars = _parse_chars(ring, args.char)
    if len(chars) != 1:
        raise ValueError(f"--char takes one exponent tuple, got {len(chars)}")
    return _report_sum(args, ring, "G", gauss_sum(chars[0], _parse_element(ring, args.b)))


def cmd_jacobi(args) -> int:
    ring = _build_ring(args)
    chars = _parse_chars(ring, args.chars)
    a = _parse_element(ring, args.a)
    return _report_sum(args, ring, "J", jacobi(chars, a, cap=args.cap_terms))


def cmd_tilde_jacobi(args) -> int:
    ring = _build_ring(args)
    chars = _parse_chars(ring, args.chars)
    a = _parse_element(ring, args.a)
    brute = tilde_jacobi_brute(chars, args.k, a, cap=args.cap_terms)
    expected = tilde_jacobi_classify(chars, args.k, a, cap=args.cap_terms)
    return _report_sum(args, ring, "J~", SumValue(brute.value, expected, brute.terms))


def cmd_codebook(args) -> int:
    ring = _build_ring(args)
    a = named_twist(ring, args.a_mode)
    psi0 = None
    if args.psi0:
        psi0 = MultCharacter(ring.reduced(1), tuple(int(c) for c in args.psi0.split(",")))
    params = CodebookParams(ring=ring, m=args.m, k=args.k, a=a, psi0=psi0, section=args.section)
    check_pair_budget(*codebook_size(ring.q, ring.n, params.m, params.k), args.cap_pairs)
    cb = build_codebook(params, allow_nonunit_a=not a.is_unit)
    report = imax_exhaustive(cb, pair_budget=args.cap_pairs)
    payload = report.to_json(cb.N, cb.K)
    payload["params"] = cb.to_json_params()
    if args.export:
        data = export_codebook(cb, fmt=args.format)
        with open(args.export, "wb") as fh:
            fh.write(data)
        payload["exported"] = args.export
    text = (
        f"(N, K) = ({cb.N}, {cb.K})\n"
        f"imax measured {report.imax_measured:.12g}, formula {report.imax_formula:.12g}\n"
        f"Welch bound {report.welch:.12g}, measured/bound {report.ratio:.12g}\n"
        f"argmax pair {report.pair_argmax}"
    )
    _emit(args, payload, text)
    return EXIT_OK


def cmd_table2(args) -> int:
    rows = table2(args.q if args.q else None)
    payload = {"rows": [r.to_json() for r in rows]}
    lines = [f"{'q':>4} {'N':>14} {'K':>12} {'imax':>14} {'welch':>14} {'ratio':>14}"]
    for r in rows:
        lines.append(
            f"{r.q:>4} {r.N:>14} {r.K:>12} {r.imax:>14.10g} {r.welch:>14.10g} {r.ratio:>14.10g}"
        )
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_verify(args) -> int:
    seeded = SEEDED_SUITES + ("all",)
    if args.seed is not None and args.suite not in seeded:
        raise ValueError(f"suite {args.suite} takes no --seed; only {', '.join(seeded)} do")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = [run_suite(name, seed=args.seed) for name in names]
    payload = {"suites": [r.to_json() for r in results]}
    lines = []
    for r in results:
        lines.append(r.summary)
        for c in r.checks:
            mark = "PASS" if c.ok else "FAIL"
            lines.append(f"  [{mark}] {c.label}" + (f" -- {c.detail}" if c.detail else ""))
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galois-sums",
        description="Galois ring arithmetic, character sums, and codebooks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("ring", help="inspect a ring")
    _add_ring_args(sp)
    _add_common(sp)
    sp.set_defaults(fn=cmd_ring)

    sp = subs.add_parser("chars", help="list multiplicative characters")
    _add_ring_args(sp)
    _add_common(sp)
    sp.set_defaults(fn=cmd_chars)

    sp = subs.add_parser("gauss", help="Gauss sum of a character and a twist")
    _add_ring_args(sp)
    _add_common(sp, "--tol")
    sp.add_argument("--char", required=True, help="exponent tuple, e.g. 1,0")
    sp.add_argument("--b", required=True, help="twist element")
    sp.set_defaults(fn=cmd_gauss)

    sp = subs.add_parser("jacobi", help="Jacobi sum of characters at a twist")
    _add_ring_args(sp)
    _add_common(sp, "--cap-terms", "--tol")
    sp.add_argument("--chars", required=True, help="semicolon-separated exponent tuples")
    sp.add_argument("--a", required=True, help="twist element")
    sp.set_defaults(fn=cmd_jacobi)

    sp = subs.add_parser("tilde-jacobi", help="mixed-domain character sum")
    _add_ring_args(sp)
    _add_common(sp, "--cap-terms", "--tol")
    sp.add_argument("--chars", required=True)
    sp.add_argument("--a", required=True)
    sp.add_argument("-k", type=int, required=True, help="size of the unit block")
    sp.set_defaults(fn=cmd_tilde_jacobi)

    sp = subs.add_parser("codebook", help="build and evaluate a codebook")
    _add_ring_args(sp)
    _add_common(sp, "--cap-pairs")
    sp.add_argument("-m", type=int, required=True)
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--a-mode", choices=TWIST_MODES, default="unit")
    sp.add_argument("--psi0", help="exponent tuple over the quotient ring")
    sp.add_argument("--section", default="lex-min", choices=SECTIONS)
    sp.add_argument("--export", help="write the matrix to this path")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.set_defaults(fn=cmd_codebook)

    sp = subs.add_parser("table2", help="analytic parameter table")
    sp.add_argument("q", nargs="*", type=int, help="alphabet sizes (default: reference list)")
    _add_common(sp)
    sp.set_defaults(fn=cmd_table2)

    sp = subs.add_parser("verify", help="run a named verification suite")
    sp.add_argument("suite", choices=list(SUITES) + ["all"])
    _add_common(sp, "--seed")
    sp.set_defaults(fn=cmd_verify)

    return parser


def _check_output_paths(args) -> None:
    """OSError for an --out or --export path that cannot be written, before any work.

    The directory must exist, be a directory and be writable, and the path
    must not be a directory.  The file is still written only at the end.
    """
    for path in filter(None, (args.out, getattr(args, "export", None))):
        folder = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(folder):
            raise OSError(f"cannot write {path}: {folder} is not a directory")
        if not os.access(folder, os.W_OK):
            raise OSError(f"cannot write {path}: {folder} is not writable")
        if os.path.isdir(path):
            raise OSError(f"cannot write {path}: it is a directory")


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_paths(args)
        return args.fn(args)
    except (TooLarge, SizeLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (GaloisSumsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())

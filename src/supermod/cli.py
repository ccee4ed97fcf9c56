"""Command-line front end: dispatch to the library, emit deterministic reports.

Every subcommand prints one JSON document (or its plain-text rendering with
``--format text``) and exits 0 when all checks pass, 1 on a verification
failure (the report is still emitted), and 2 on a usage or configuration
error.  Reports are byte-deterministic for identical invocations; the env
var SUPERMOD_SEED (default 0) fixes the randomized-specialization draws.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .analysis import (
    Window,
    identity_witness,
    iso_witness_check,
    module_axiom_check,
    phi_witness,
    psi_witness,
    q_operator_check,
    span_probe,
    submodule_check,
    t_operator_check,
)
from .dmodules import ModuleVector, parse_vector, render_token, spec_from_json
from .functors import GModuleHandle, g_act
from .liealg import (
    LieVector,
    algebra_generators,
    jacobi_check,
    parse_generator,
    parse_sector,
    render_generator,
    sector_of,
)
from .morphisms import HOM_CHECK_KINDS, hom_check
from .scalars import ScalarError, scalar

__all__ = ["main"]


class UsageError(ValueError):
    """A bad flag combination or malformed value; maps to exit status 2."""


# ----------------------------------------------------------------------
# argument helpers

def _parse_window(text: str, parts: int) -> Window:
    pieces = text.split(",")
    if len(pieces) != parts:
        shape = ",".join("GTW"[:parts])
        raise UsageError(f"--window must look like {shape}, got {text!r}")
    try:
        bounds = [int(p) for p in pieces]
    except ValueError:
        raise UsageError(f"window bounds must be integers, got {text!r}") from None
    return Window(*bounds)


def _int_window(bound: int) -> int:
    if bound < 1:
        raise UsageError(f"--window must be >= 1, got {bound}")
    return bound


def _parse_assignments(text: str | None) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for piece in filter(None, (text or "").split(",")):
        name, sep, value = piece.partition("=")
        name = name.strip()
        if not sep or not name:
            raise UsageError(f"--specialize entries look like name=value, got {piece!r}")
        if name in out:
            raise UsageError(f"--specialize names {name} more than once")
        try:
            out[name] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise UsageError(
                f"--specialize value for {name} is not a rational: {value!r}"
            ) from None
    return out


def _build_handle(args, sector: int | None = None) -> GModuleHandle:
    module = spec_from_json(args.module)
    if sector is None:
        sector = parse_sector(args.sector)
    return GModuleHandle(module, scalar(args.b), sector,
                         pi=args.pi, sigma=args.sigma, quotient=args.quotient)


def _check_declared(handle: GModuleHandle, assignments: dict) -> None:
    unknown = sorted(set(assignments) - set(handle.parameters()))
    if unknown:
        raise UsageError(
            "parameter(s) not declared by the module spec: " + ", ".join(unknown))


# ----------------------------------------------------------------------
# output

def _plain(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    return str(value)


def _text_lines(value, indent: str = "") -> list[str]:
    lines: list[str] = []
    if isinstance(value, dict):
        for key in sorted(value):
            sub = value[key]
            if isinstance(sub, (dict, list)) and sub:
                lines.append(f"{indent}{key}:")
                lines.extend(_text_lines(sub, indent + "  "))
            elif isinstance(sub, dict):
                lines.append(f"{indent}{key}: {{}}")
            elif isinstance(sub, list):
                lines.append(f"{indent}{key}: []")
            else:
                lines.append(f"{indent}{key}: {_plain(sub)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{indent}-")
                lines.extend(_text_lines(item, indent + "  "))
            else:
                lines.append(f"{indent}- {_plain(item)}")
    else:
        lines.append(f"{indent}{_plain(value)}")
    return lines


def _emit(payload, args) -> None:
    if args.format == "text":
        body = "\n".join(_text_lines(payload)) + "\n"
    else:
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(body, encoding="utf-8")
    else:
        sys.stdout.write(body)


# ----------------------------------------------------------------------
# subcommands: each returns (payload, passed)

def _cmd_verify_algebra(args):
    report = jacobi_check(parse_sector(args.sector), _int_window(args.window))
    return report.to_json(), report.passed


def _cmd_verify_morphism(args):
    b = scalar(args.b) if args.b is not None else None
    report = hom_check(args.map, _int_window(args.window), b)
    return report.to_json(), report.passed


def _cmd_act(args):
    gen = parse_generator(args.generator)
    sector = parse_sector(args.sector) if args.sector is not None else None
    if sector is None:
        sector = sector_of(gen) or 0
    handle = _build_handle(args, sector)
    vec = parse_vector(handle.module, args.vector)
    image = g_act(handle, LieVector.basis(gen, sector), vec)
    payload = {render_token(handle.module, tok): coeff.render()
               for tok, coeff in image.items()}
    return payload, True


def _cmd_action_table(args):
    handle = _build_handle(args)
    _int_window(args.window)
    gens = algebra_generators(handle.sector, args.window, include_central=True)
    entries = {}
    for gen in gens:
        gvec = LieVector.basis(gen, handle.sector)
        row = {}
        for tok in handle.tokens(args.window):
            image = g_act(handle, gvec, ModuleVector.single(tok))
            row[render_token(handle.module, tok)] = {
                render_token(handle.module, t): c.render() for t, c in image.items()}
        entries[render_generator(gen)] = row
    payload = {"schema": "1", "kind": "action-table", "module": handle.describe(),
               "window": args.window, "entries": entries}
    return payload, True


def _cmd_check_module(args):
    handle = _build_handle(args)
    report = module_axiom_check(handle, _parse_window(args.window, 2))
    return report.to_json(), report.passed


def _cmd_probe(args):
    handle = _build_handle(args)
    assignments = _parse_assignments(args.specialize)
    _check_declared(handle, assignments)
    seed = parse_vector(handle.module, args.seed)
    report = span_probe(handle, seed, _parse_window(args.window, 3),
                        assignments or None)
    return report.to_json(), report.full


def _cmd_check_lemma(args):
    handle = _build_handle(args)
    vec = parse_vector(handle.module, args.vector)
    if args.which == "T":
        if args.k is None:
            raise UsageError("--which T needs --k")
        report = t_operator_check(handle, args.k, args.d, vec)
    else:
        if args.m is None:
            raise UsageError("--which Q needs --m")
        report = q_operator_check(handle, args.m, args.d, vec)
    return report.to_json(), report.passed


def _cmd_check_iso(args):
    window = _parse_window(args.window, 2)
    if args.witness == "phi":
        witness = phi_witness(scalar(args.alpha), window.token_bound)
    elif args.witness == "psi":
        witness = psi_witness(window.token_bound)
    else:
        if args.module is None or args.b is None:
            raise UsageError("--witness identity needs --module and --b")
        witness = identity_witness(_build_handle(args), window.token_bound)
    report = iso_witness_check(*witness, window)
    return report.to_json(), report.passed


def _cmd_check_submodule(args):
    handle = _build_handle(args)
    vectors = [parse_vector(handle.module, text) for text in args.vector]
    report = submodule_check(handle, vectors, _parse_window(args.window, 2))
    return report.to_json(), report.passed


# ----------------------------------------------------------------------
# parser assembly

def _add_module_flags(sub):
    sub.add_argument("--module", required=True,
                     help="module spec as JSON, e.g. '{\"family\":\"laurent\",\"alpha\":\"a\"}'")
    sub.add_argument("--b", required=True, help="the twist parameter (scalar text)")
    sub.add_argument("--sector", default="0", help="0 or 1/2")
    sub.add_argument("--pi", action="store_true", help="flip the parity grading")
    sub.add_argument("--sigma", action="store_true", help="twist by the order-2 automorphism")
    sub.add_argument("--quotient", action="store_true",
                     help="pass to the quotient by the killed token (b = 0 only)")


@functools.cache  # the parser holds configuration only, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supermod",
        description="exact checks for superconformal modules built from D-modules")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--output", default=None,
                        help="write the report here instead of stdout")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, help: str):
        sub = commands.add_parser(name, help=help, parents=[common])
        # argparse reads a word such as -1/4, -b or -t^0 as an unknown option
        # unless it looks like a plain negative number; widen that test so a
        # value flag takes any next word that does not start with "--"
        sub._negative_number_matcher = re.compile(r"-[^-]")
        return sub

    sub = add_parser("verify-algebra", "graded Jacobi identity on a window")
    sub.add_argument("--sector", default="0", help="0 or 1/2")
    sub.add_argument("--window", type=int, required=True)
    sub.set_defaults(func=_cmd_verify_algebra)

    sub = add_parser("verify-morphism", "bracket compatibility of a structure map")
    sub.add_argument("--map", required=True, choices=HOM_CHECK_KINDS)
    sub.add_argument("--window", type=int, required=True)
    sub.add_argument("--b", default=None, help="twist parameter for sigma-b (default symbolic)")
    sub.set_defaults(func=_cmd_verify_morphism)

    sub = add_parser("act", "apply one generator to a vector")
    _add_module_flags(sub)
    sub.set_defaults(sector=None)
    sub.add_argument("--generator", required=True, help='e.g. "L[2]" or "G+[3/2]"')
    sub.add_argument("--vector", required=True, help='e.g. "t^0" or "2*t^1 + t^0~"')
    sub.set_defaults(func=_cmd_act)

    sub = add_parser("action-table", "dump every generator-on-token image")
    _add_module_flags(sub)
    sub.add_argument("--window", type=int, required=True)
    sub.set_defaults(func=_cmd_action_table)

    sub = add_parser("check-module", "module axioms on all window pairs")
    _add_module_flags(sub)
    sub.add_argument("--window", required=True, help="genBound,tokenBound")
    sub.set_defaults(func=_cmd_check_module)

    sub = add_parser("probe", "close a seed under the window action")
    _add_module_flags(sub)
    sub.add_argument("--seed", required=True, help="a token or vector to start from")
    sub.add_argument("--window", required=True, help="genBound,tokenBound,wordLength")
    sub.add_argument("--specialize", default=None, help="comma-separated name=value pairs")
    sub.set_defaults(func=_cmd_probe)

    sub = add_parser("check-lemma", "the T or Q operator identity")
    _add_module_flags(sub)
    sub.add_argument("--which", required=True, choices=("T", "Q"))
    sub.add_argument("--vector", required=True)
    sub.add_argument("--k", type=int, default=None, help="t-power for the T identity")
    sub.add_argument("--m", type=int, default=None, help="t-power for the Q identity")
    sub.add_argument("--d", type=int, required=True, help="the auxiliary mode index")
    sub.set_defaults(func=_cmd_check_lemma)

    sub = add_parser("check-submodule", "invariance of a spanned subspace")
    _add_module_flags(sub)
    sub.add_argument("--vector", action="append", required=True,
                     help="a spanning vector (repeatable)")
    sub.add_argument("--window", required=True, help="genBound,tokenBound")
    sub.set_defaults(func=_cmd_check_submodule)

    sub = add_parser("check-iso", "verify a module-comparison rule")
    sub.add_argument("--witness", required=True, choices=("phi", "psi", "identity"))
    sub.add_argument("--window", required=True, help="genBound,tokenBound")
    sub.add_argument("--alpha", default="1/3", help="weight for the phi rule")
    sub.add_argument("--module", default=None, help="module spec for the identity rule")
    sub.add_argument("--b", default=None)
    sub.add_argument("--sector", default="0")
    sub.add_argument("--pi", action="store_true")
    sub.add_argument("--sigma", action="store_true")
    sub.add_argument("--quotient", action="store_true")
    sub.set_defaults(func=_cmd_check_iso)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        payload, passed = args.func(args)
    except (ScalarError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(payload, args)
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())

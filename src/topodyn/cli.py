"""Command-line front end.

Every subcommand prints one JSON document on stdout.  Exit codes: 0 for
success (property holds, derivation checks, nothing refuted), 1 when a
checked property fails or a countermodel is found, 2 for usage or input
errors.  ``TOPODYN_MAX_POINTS`` (default 12) caps enumeration sizes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from . import checker, frameprops, harness, proofkit, transform
from .announce import announce, check_test_announcement_identity
from .formula import ParseError, format_formula, formula_to_json, parse, parse_formulas
from .models import (
    DTModel,
    PDLModel,
    Scenario,
    SubsetModel,
    model_from_json,
    model_to_json,
    points_from_mask,
    validate,
)


def _max_points() -> int:
    try:
        return int(os.environ.get("TOPODYN_MAX_POINTS", "12"))
    except ValueError:
        raise ValueError("TOPODYN_MAX_POINTS must be an integer") from None


_ascii = json.encoder.encode_basestring_ascii


_INT_OR_NULL = {int, type(None)}
# the JSON text of null and of the small non-negative ints, which make up the
# transform's map tables, cells and roots: such a list is written by one
# lookup per item, in C
_NUMERALS = {None: "null", **{i: int.__repr__(i) for i in range(4096)}}


def _dumps(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte.

    The stdlib runs its pure-Python chunk generator whenever ``indent`` is
    set; this appends every piece of the document to one list and joins it
    once, so no container's text is copied into its parent's.  A document
    this encoder cannot write (a key that is not a string, an object with no
    JSON form) goes to the stdlib whole, for its text or its TypeError.
    """
    names: dict[str, str] = {}  # a key's text, with its ": "
    out: list[str] = []
    append = out.append

    def encode(o, pad: str) -> None:
        # appends o's text to out, in one frame per nesting level; pad is a
        # newline plus the indentation of the level o sits at
        cls = type(o)
        if cls is dict or cls is list:
            is_dict = cls is dict
        elif isinstance(o, str):
            append(_ascii(o))
            return
        elif o is None:
            append("null")
            return
        elif o is True:
            append("true")
            return
        elif o is False:
            append("false")
            return
        elif cls is int:
            append(int.__repr__(o))
            return
        else:
            is_dict = isinstance(o, dict)
            if not (is_dict or isinstance(o, (list, tuple))):
                append(json.dumps(o))  # floats; anything else raises TypeError
                return
        if not o:
            append("{}" if is_dict else "[]")
            return
        inner = pad + "  "
        sep = "," + inner
        if is_dict:
            lead = "{" + inner
            for k, v in sorted(o.items()):
                name = names.get(k)
                if name is None:
                    name = names[k] = _ascii(k) + ": "
                if type(v) is int:
                    append(lead + name + int.__repr__(v))
                else:
                    append(lead + name)
                    encode(v, inner)
                lead = sep
            append(pad + "}")
        else:
            if set(map(type, o)) <= _INT_OR_NULL:  # no bool, float or int subclass
                append("[" + inner)
                try:
                    append(sep.join(map(_NUMERALS.__getitem__, o)))
                except KeyError:  # a number outside the table
                    append(sep.join(["null" if x is None else int.__repr__(x) for x in o]))
            else:
                lead = "[" + inner
                for x in o:
                    append(lead)
                    lead = sep
                    encode(x, inner)
            append(pad + "]")

    try:
        encode(doc, "\n")
    except TypeError:
        return json.dumps(doc, indent=2, sort_keys=True)
    finally:
        # encode's closure holds encode, and out through append: emptying
        # its cell breaks that cycle, so out is freed on return, not by gc
        del encode
    return "".join(out)


def _emit(obj: dict) -> None:
    print(_dumps(obj))


def _read_json(path: str):
    """The JSON document in a file.  The decoder recurses once per nesting
    level, so a document nested past the interpreter's recursion limit is
    an input error, not a crash."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


def _load_model(path: str):
    obj = _read_json(path)
    # cap the declared size before anything is built from it; malformed
    # shapes are left to model_from_json's errors
    n = None
    if isinstance(obj, dict):
        holder = obj if obj.get("type") == "pdl" else obj.get("space")
        if isinstance(holder, dict):
            n = holder.get("points")
    if type(n) is int and n > _max_points():
        raise ValueError(f"model has {n} points, over TOPODYN_MAX_POINTS={_max_points()}")
    model = model_from_json(obj)
    problems = validate(model)
    if problems:
        raise ValueError(
            "invalid model: " + "; ".join(json.dumps(v.to_json()) for v in problems)
        )
    return model


def _parse_scenario(model: SubsetModel, text: str) -> Scenario:
    try:
        x_str, u_str = text.split(",")
        x, u_index = int(x_str), int(u_str)
    except ValueError:
        raise ValueError("scenario must look like 'x,u-index'") from None
    if not 0 <= x < model.space.n:
        raise ValueError(f"point {x} out of range")
    opens = model.space.opens_sorted()
    if not 0 <= u_index < len(opens):
        raise ValueError(f"open-set index {u_index} out of range (0..{len(opens) - 1})")
    return Scenario(x, opens[u_index])


# --- subcommands -------------------------------------------------------------


def _cmd_parse(args: argparse.Namespace) -> int:
    f = parse(args.formula)
    _emit({"text": format_formula(f), "ast": formula_to_json(f)})
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    f = parse(args.formula)
    if isinstance(model, SubsetModel):
        if args.at is not None:
            raise ValueError("--at does not apply to subset-space models; use --scenario")
        if args.scenario is None:
            raise ValueError("subset-space evaluation needs --scenario x,u-index")
        s = _parse_scenario(model, args.scenario)
        truth = checker.eval_subset(model, f, s)
        _emit({"truth": truth, "scenario": s.to_json()})
        return 0 if truth else 1
    if args.scenario is not None:
        raise ValueError("--scenario applies only to subset-space models")
    if isinstance(model, PDLModel):
        ext = checker.eval_pdl_relational(model, f)
    else:
        ext = checker.eval_dtl(model, f)
    if args.at is not None:
        if not 0 <= args.at < model.n:
            raise ValueError(f"point {args.at} out of range")
        truth = bool(ext >> args.at & 1)
        _emit({"truth": truth, "at": args.at})
        return 0 if truth else 1
    _emit({"extension": points_from_mask(ext)})
    return 0


def _cmd_frame(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    prop = args.prop
    if prop == frameprops.SERIALITY:
        if not isinstance(model, PDLModel):
            raise ValueError("seriality applies to relational models")
        report = frameprops.is_serial(model)
        _emit(report.to_json())
        return 0 if report.holds else 1

    if isinstance(model, PDLModel):
        raise ValueError("continuity/openness apply to map-based models")
    if args.scheme and not isinstance(model, DTModel):
        raise ValueError("--scheme needs a dynamic-topological model")
    out: dict = {"property": prop, "programs": {}}
    holds = True
    for name in model.alphabet:
        fn = model.fn[name]
        if prop == frameprops.CONTINUITY:
            if None in fn:
                raise ValueError("continuity needs total maps")
            rep = frameprops.is_continuous(model.space, fn)
        else:
            rep = frameprops.is_open_map(model.space, fn)
        entry = rep.to_json()
        if args.scheme:
            srep = frameprops.validates_scheme(model.space, fn, prop)
            entry["scheme"] = srep.to_json()
            entry["routes_agree"] = srep.holds == rep.holds
        holds &= rep.holds
        out["programs"][name] = entry
    out["holds"] = holds
    _emit(out)
    return 0 if holds else 1


def _cmd_transform(args: argparse.Namespace) -> int:
    _require_counts(args, "--budget")
    model = _load_model(args.model)
    if not isinstance(model, PDLModel):
        raise ValueError("transform starts from a relational model")
    table: dict = {}  # one node per distinct subterm of the whole list
    formulas = [f for chunk in args.check or [] for f in parse_formulas(chunk, table)]
    # a list the space cannot judge is refused before the space is built
    transform._check_formulas(formulas, args.depth)
    space = transform.build_network_space(model, args.depth, args.budget)
    out: dict = {"network_space": transform.network_space_to_json(space)}
    out["stratum_sizes"] = space.stratum_sizes()
    code = 0
    if formulas:
        report = transform.check_truth_preservation(
            model, formulas, args.depth, args.budget, space=space
        )
        out["preservation"] = report.to_json()
        code = 0 if report.ok else 1
    _emit(out)
    return code


def _cmd_announce(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    if not isinstance(model, SubsetModel):
        raise ValueError("announcements live on subset-space models")
    phi, psi = parse(args.phi), parse(args.psi)
    s = _parse_scenario(model, args.scenario)
    result = announce(model, phi, s)
    agrees = check_test_announcement_identity(model, phi, psi, s)
    out = result.to_json()
    out["identity_agrees"] = agrees
    _emit(out)
    return 0 if agrees else 1


def _cmd_prove(args: argparse.Namespace) -> int:
    derivation = proofkit.derivation_from_json(_read_json(args.derivation))
    result = proofkit.check_derivation(derivation)
    _emit(result.to_json())
    return 0 if result.ok else 1


def _require_counts(args: argparse.Namespace, *options: str) -> None:
    """A count below 1 is a usage error that names its option."""
    for option in options:
        value = getattr(args, option[2:].replace("-", "_"))
        if value < 1:
            raise ValueError(f"{option} must be at least 1, not {value}")


def _cmd_audit(args: argparse.Namespace) -> int:
    _require_counts(args, "--trials", "--instances", "--points")
    if args.points > _max_points():
        raise ValueError(
            f"--points {args.points} is over TOPODYN_MAX_POINTS={_max_points()}"
        )
    cfg = harness.GenConfig(
        seed=args.seed,
        max_points=args.points,
        num_programs=args.programs,
        model_class=args.model_class,
    )
    known = ["CPL", *dict(proofkit.get_system(args.system).schemes)]
    for name in args.scheme or ():
        if name not in known:
            raise ValueError(f"--scheme {name!r} is not a scheme of {args.system}: {known}")
    schemes = set(args.scheme) if args.scheme else None
    report = harness.audit(
        args.system, cfg, trials=args.trials, instances=args.instances, schemes=schemes
    )
    _emit(report.to_json())
    print(f"elapsed: {report.elapsed:.3f}s", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_refute(args: argparse.Namespace) -> int:
    _require_counts(args, "--bound")
    if args.bound > _max_points():
        raise ValueError(
            f"--bound {args.bound} is over TOPODYN_MAX_POINTS={_max_points()}"
        )
    f = parse(args.formula)
    found = harness.search_countermodel(f, bound=args.bound, model_class=args.model_class)
    if found is None:
        _emit({"found": False, "bound": args.bound, "model_class": args.model_class})
        return 0
    model, witness = found
    out = {
        "found": True,
        "model": model_to_json(model),
        "formula": format_formula(f),
    }
    if isinstance(witness, Scenario):
        out["scenario"] = witness.to_json()
    else:
        out["point"] = witness
    _emit(out)
    return 1


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error is one ``error: ...`` line and exit 2, as every other
    input error is; subparsers are built of this class too."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; parsing leaves it unchanged."""
    parser = _ArgumentParser(
        prog="topodyn",
        description="Model checking and frame analysis for program logics "
        "over topological state spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and print its AST")
    p.add_argument("-f", "--formula", required=True)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("eval", help="evaluate a formula on a model")
    p.add_argument("-m", "--model", required=True, help="model JSON file")
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("--at", type=int, help="evaluate at one point")
    p.add_argument("--scenario", help="x,u-index (subset models)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("frame", help="decide a frame property")
    p.add_argument("-m", "--model", required=True)
    p.add_argument(
        "--prop",
        required=True,
        choices=[frameprops.CONTINUITY, frameprops.OPENNESS, frameprops.SERIALITY],
    )
    p.add_argument(
        "--scheme",
        action="store_true",
        help="also decide via scheme validity and report agreement",
    )
    p.set_defaults(func=_cmd_frame)

    p = sub.add_parser("transform", help="build the bounded network space")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument(
        "--check",
        action="append",
        help="formulas (semicolon separated, repeatable) to verify truth preservation",
    )
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("announce", help="announcement update and identity check")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("--phi", required=True, help="announced formula (box/next fragment)")
    p.add_argument("--psi", required=True, help="formula checked after update")
    p.add_argument("--scenario", required=True, help="x,u-index")
    p.set_defaults(func=_cmd_announce)

    p = sub.add_parser("prove", help="check a Hilbert-style derivation")
    p.add_argument("-d", "--derivation", required=True, help="derivation JSON file")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("audit", help="randomized soundness audit")
    p.add_argument("--system", required=True, choices=["SPDL0", "SPDL0_SEQ", "DTEL"])
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=5)
    p.add_argument("--programs", type=int, default=2)
    p.add_argument("--instances", type=int, default=3)
    p.add_argument(
        "--model-class",
        choices=list(harness.MODEL_CLASSES),
        help="override the class paired with the system",
    )
    p.add_argument(
        "--scheme", action="append", help="restrict to named schemes (repeatable)"
    )
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("refute", help="search for a small countermodel")
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("--bound", type=int, default=4)
    p.add_argument(
        "--model-class",
        default="dtl",
        choices=list(harness.MODEL_CLASSES),
    )
    p.set_defaults(func=_cmd_refute)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ParseError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

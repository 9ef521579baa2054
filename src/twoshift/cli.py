"""Command-line front end.

Verbs map one-to-one onto library operation families; all set-valued
output is sorted before emission so reports are byte-identical across
runs.  Exit codes: 0 success (or true verdict), 1 false verdict or witness
produced, 2 input error or out of memory.  Each verb imports the modules
it runs inside its ``cmd_*``, so a cold start loads no others.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ParseError, ShiftError


def _load_spec(path: str, recoded: bool = False):
    """A spec file; ``recoded`` admits a recoded spec (with ``overlap_m``)."""
    from .spaces import spec_from_json
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "overlap_m" in data:
        if not recoded:
            raise ParseError("this verb does not take a recoded spec")
        if type(data["overlap_m"]) is not int:
            raise ParseError("overlap_m must be an integer")
        from .higherblock import hb_spec
        base = spec_from_json({k: v for k, v in data.items()
                               if k != "overlap_m"})
        return hb_spec(data["overlap_m"], base)
    return spec_from_json(data)


def _load_code(path: str):
    from .blockcodes import code_from_json
    with open(path) as fh:
        return code_from_json(json.load(fh))


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def cmd_point_eval(args) -> int:
    from .points import format_point, parse_point
    from .words import EMPTY, format_letters
    x = parse_point(args.point)
    if args.shift is not None:
        x = x.shift(args.shift)
    if args.index is not None:
        v = x[args.index]
        print("_" if v is EMPTY else v)
        return 0
    if args.length:
        l = x.length()
        print("-inf" if l == float("-inf")
              else ("+inf" if l == float("inf") else int(l)))
        return 0
    if args.window is not None:
        i, j = args.window
        print(format_letters(x.window(i, j)))
        return 0
    if args.tail is not None:
        print(str(x.tail_ray(args.tail)))
        return 0
    print(format_point(x))
    return 0


def cmd_space_check(args) -> int:
    from . import spaces
    from .points import parse_point
    spec = _load_spec(args.spec, recoded=True)
    x = parse_point(args.point)
    if isinstance(spec, spaces.ForbiddenSpec):
        member = spaces.contains(spec, x)
    else:
        from .higherblock import hb_contains
        member = hb_contains(spec, x)
    print("member" if member else "not a member")
    return 0 if member else 1


def cmd_space_blocks(args) -> int:
    from . import spaces
    from .words import EMPTY, format_letters
    spec = _load_spec(args.spec, recoded=True)
    if isinstance(spec, spaces.ForbiddenSpec):
        bl = spaces.blocks(spec, args.n, args.cutoff)
    else:
        from .higherblock import hb_blocks
        bl = hb_blocks(spec, args.n, args.cutoff)
    for w in sorted(bl, key=lambda w: tuple(
            (1, 0) if c is EMPTY else (0, c) for c in w)):
        print(format_letters(w))
    return 0


def cmd_space_minimalize(args) -> int:
    from .spaces import minimalize, spec_to_json
    spec = _load_spec(args.spec)
    out = minimalize(spec)
    _emit_json(spec_to_json(out))
    return 0


def cmd_space_classify(args) -> int:
    from . import spaces
    spec = _load_spec(args.spec, recoded=True)
    if isinstance(spec, spaces.ForbiddenSpec):
        c = spaces.classify(spec)
    else:
        from .higherblock import hb_classify
        c = hb_classify(spec)
    report = {"row_finite": c.row_finite, "column_finite": c.column_finite,
              "m_step": c.m_step, "finite_type": c.finite_type}
    if args.json:
        _emit_json(report)
    else:
        for k in sorted(report):
            print("%s: %s" % (k, report[k]))
    return 0


def cmd_space_equal(args) -> int:
    from .spaces import equal_spaces
    from .words import format_letters
    a = _load_spec(args.spec)
    b = _load_spec(args.other)
    equal, witness = equal_spaces(a, b, args.n_budget, args.cutoff)
    if equal:
        print("equal up to budget %d" % args.n_budget)
        return 0
    print("differ: %s" % (witness if not isinstance(witness, tuple)
                          else format_letters(witness)))
    return 1


def cmd_code_apply(args) -> int:
    from .blockcodes import sbc_apply
    from .points import format_point, parse_point
    code = _load_code(args.rule)
    x = parse_point(args.point)
    print(format_point(sbc_apply(code, x)))
    return 0


def cmd_code_check(args) -> int:
    from .blockcodes import check_continuity_sufficient
    code = _load_code(args.rule)
    report = check_continuity_sufficient(code)
    if report.passes:
        print("passes: single pseudo cylinder per letter class")
        return 0
    print("fails: %s" % report.reason)
    return 1


def cmd_recode(args) -> int:
    from . import higherblock
    from .points import format_point, parse_point
    spec = _load_spec(args.spec) if args.spec else None
    if args.point is not None:
        x = parse_point(args.point)
        y = (higherblock.hb_decode(args.m, x) if args.decode
             else higherblock.hb_encode(args.m, x))
        print(format_point(y))
        return 0
    if spec is None:
        raise ShiftError("recode needs a spec or a point")
    h = higherblock.hb_spec(args.m, spec)
    _emit_json(higherblock.hb_spec_to_json(h))
    return 0


def cmd_edge_build(args) -> int:
    from .higherblock import graph_to_dot, to_edge_shift
    from .words import format_letters
    spec = _load_spec(args.spec)
    graph, derived = to_edge_shift(spec, args.cutoff)
    if args.m is not None and graph.m != args.m:
        raise ShiftError("spec is %d-step, not %d-step" % (graph.m, args.m))
    if args.dot:
        sys.stdout.write(graph_to_dot(graph))
        return 0
    print("vertices: %s" % ", ".join(
        format_letters(v) if v else "()" for v in graph.vertices))
    print("edges: %s" % ", ".join(format_letters(e) for e in graph.edges))
    print("infinite emitters: %s" % ", ".join(
        format_letters(v) if v else "()"
        for v in sorted(graph.infinite_emitters)))
    return 0


def cmd_bridge_project(args) -> int:
    from . import bridge
    from .points import parse_point
    from .words import format_letters
    if args.point is not None:
        res = bridge.project(parse_point(args.point))
        print(str(res.point))
        print("continuous at x: %s" % res.continuous)
        return 0
    spec = _load_spec(args.spec)
    proj = bridge.project_space(spec)
    out = {"forbid_words": sorted(
        format_letters(p) for p in proj.one.patterns)}
    if proj.one.alphabet is not None:
        out["alphabet"] = sorted(proj.one.alphabet)
    out["letters_infinite"] = proj.letters_infinite
    _emit_json(out)
    return 0


def cmd_bridge_lift(args) -> int:
    from .bridge import OneSpec, lift_space
    from .spaces import spec_from_json, spec_to_json
    with open(args.spec) as fh:
        spec = spec_from_json(json.load(fh))
    one = OneSpec(spec.patterns, spec.alphabet)
    lifted = lift_space(one)
    out = spec_to_json(lifted.two)
    out["case"] = lifted.case
    _emit_json(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="twoshift",
        description="exact toolkit for two-sided shift spaces over "
                    "countably infinite alphabets")
    sub = p.add_subparsers(dest="verb", required=True)

    s = sub.add_parser("point-eval", help="evaluate a point expression")
    s.add_argument("point")
    s.add_argument("--index", type=int)
    s.add_argument("--shift", type=int)
    s.add_argument("--length", action="store_true")
    s.add_argument("--window", type=int, nargs=2, metavar=("I", "J"))
    s.add_argument("--tail", type=int)
    s.set_defaults(func=cmd_point_eval)

    s = sub.add_parser("space-check", help="membership of a point")
    s.add_argument("spec")
    s.add_argument("--point", required=True)
    s.set_defaults(func=cmd_space_check)

    s = sub.add_parser("space-blocks", help="blocks of length n")
    s.add_argument("spec")
    s.add_argument("-n", type=int, required=True)
    s.add_argument("--cutoff", type=int, default=4)
    s.set_defaults(func=cmd_space_blocks)

    s = sub.add_parser("space-minimalize", help="minimal equivalent spec")
    s.add_argument("spec")
    s.set_defaults(func=cmd_space_minimalize)

    s = sub.add_parser("space-classify", help="classification flags")
    s.add_argument("spec")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_space_classify)

    s = sub.add_parser("space-equal",
                       help="space comparison (exact without allowlists)")
    s.add_argument("spec")
    s.add_argument("other")
    s.add_argument("--n-budget", type=int, default=3)
    s.add_argument("--cutoff", type=int, default=4)
    s.set_defaults(func=cmd_space_equal)

    s = sub.add_parser("code-apply", help="apply a sliding block code")
    s.add_argument("rule")
    s.add_argument("--point", required=True)
    s.set_defaults(func=cmd_code_apply)

    s = sub.add_parser("code-check", help="continuity sufficient condition")
    s.add_argument("rule")
    s.set_defaults(func=cmd_code_check)

    s = sub.add_parser("recode", help="higher block recoding")
    s.add_argument("spec", nargs="?")
    s.add_argument("-M", dest="m", type=int, required=True)
    s.add_argument("--point")
    s.add_argument("--decode", action="store_true")
    s.set_defaults(func=cmd_recode)

    s = sub.add_parser("edge-build", help="edge shift of an M-step spec")
    s.add_argument("spec")
    s.add_argument("-M", dest="m", type=int)
    s.add_argument("--cutoff", type=int, default=4)
    s.add_argument("--dot", action="store_true")
    s.set_defaults(func=cmd_edge_build)

    s = sub.add_parser("bridge-project", help="project to one-sided")
    s.add_argument("spec", nargs="?")
    s.add_argument("--point")
    s.set_defaults(func=cmd_bridge_project)

    s = sub.add_parser("bridge-lift", help="lift a one-sided spec")
    s.add_argument("spec")
    s.set_defaults(func=cmd_bridge_lift)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ShiftError, OSError, ValueError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

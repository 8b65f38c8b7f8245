"""Command-line front end: it parses arguments and renders results, nothing more.

Each command is declared once, in COMMANDS, and the parser and the dispatch
are built from that table.  Exit codes: 0 success/pass, 1 verification failure
or internal error, 2 usage error (a non-prime p or a negative size among
them), 3 resource-budget error.  Results go to stdout, diagnostics to stderr.
"""

import argparse
import os
import sys

from .partitions import Partition
from . import hall as hall_mod
from . import oracle as oracle_mod
from . import quotzeta as qz
from . import clzeta as cl_mod
from .quotzeta import SingularityFamily
from .report import BudgetExceededError, VerificationReport
from .tables import table_json_obj, table_text
from .series import WindowError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _to_json(value):
    return value.to_json_obj()


def _print_json(obj, indent=None):
    import json  # here, so that text output does not pay for importing it
    print(json.dumps(obj, indent=indent))


def _emit(fmt, value, to_json, to_text=str):
    """Print to_json(value) as JSON or to_text(value) as text, whichever fmt asks."""
    if fmt == "json":
        _print_json(to_json(value))
    else:
        print(to_text(value))
    return EXIT_PASS


def _emit_reports(reports, fmt):
    if isinstance(reports, VerificationReport):
        reports = [reports]
    if fmt == "json":
        _print_json([r.to_json_obj() for r in reports], indent=2)
    else:
        for r in reports:
            print(r)
    return EXIT_PASS if all(r.status != "fail" for r in reports) else EXIT_FAIL


def _check(reports_of):
    """The runner of a verify command: the reports of reports_of(args), rendered."""
    return lambda args, fmt: _emit_reports(reports_of(args), fmt)


def _run_z(args, fmt):
    return _emit(fmt, cl_mod.z_series(args.family, args.m, args.d, args.tprec, args.module),
                 lambda cs: {"t_prec": args.tprec, "coeffs": [c.to_json_obj() for c in cs]},
                 lambda cs: "\n".join("t^%d: %s" % (j, c) for j, c in enumerate(cs)))


def _run_cl(args, fmt):
    return _emit(fmt, cl_mod.cl_series(args.family, args.m, args.uprec, args.tprec),
                 lambda s: {"numerator": s.numerator.to_json_obj(), "full": s.full.to_json_obj()},
                 lambda s: "numerator: %s\nfull: %s" % (s.numerator, s.full))


def _partitions(args):
    """The lambda, mu and (None when not given) nu of `hall` and `oracle hall`."""
    return (Partition.parse(args.lam), Partition.parse(args.mu),
            None if args.nu is None else Partition.parse(args.nu))


def _run_hall(args, fmt):
    lam, mu, nu = _partitions(args)
    poly = hall_mod.hall_skew(lam, mu) if nu is None else hall_mod.hall_general(lam, mu, nu)
    payload = {"hall": poly.to_json_obj()}
    if args.oracle is not None:
        count = oracle_mod.hall_count_oracle(lam, mu, nu, args.oracle, budget=args.budget)
        payload["oracle_count"] = str(count)
        payload["formula_at_p"] = str(poly.eval_int(args.oracle))
    if fmt == "json":
        _print_json(payload)
    else:
        print(poly)
        if args.oracle is not None:
            print("oracle count at p=%d: %s (formula gives %s)"
                  % (args.oracle, payload["oracle_count"], payload["formula_at_p"]))
    return EXIT_PASS


def _run_quot(args, fmt):
    census = oracle_mod.quot_census(args.family, args.m, args.d, args.p, args.max_codim,
                                    args.module.replace("-", "_"), budget=args.budget)
    if fmt == "json":
        _print_json(census.to_json_obj())
    else:
        for (n, r), c in sorted(census.counts.items()):
            print("codim=%d rank=%d count=%d" % (n, r, c))
    return EXIT_PASS


def _emit_count(count, fmt):
    return _emit(fmt, count, lambda c: {"count": str(c)})


def _run_suite(args, fmt):
    """One line per criterion group and the failing reports of failing groups."""
    from . import acceptance
    groups = acceptance.run_criteria(full=(args.name == "full"), budget=args.budget)
    failing = {label for label, reports in groups if any(r.status == "fail" for r in reports)}
    if fmt == "json":
        _print_json([{"group": label,
                      "status": "fail" if label in failing else "pass",
                      "reports": [r.to_json_obj() for r in reports]}
                     for label, reports in groups], indent=2)
    else:
        for label, reports in groups:
            print("[%s] %s" % ("FAIL" if label in failing else "PASS", label))
            for r in reports:
                if r.status == "fail":
                    print("    %s" % r)
        print("suite %s: %d/%d groups passed"
              % (args.name, len(groups) - len(failing), len(groups)))
    return EXIT_FAIL if failing else EXIT_PASS


def _d_list(args):
    try:
        return [int(x) for x in args.d_list.split(",") if x.strip() != ""]
    except ValueError:
        raise ValueError("--d-list must be comma-separated integers, got %r"
                         % args.d_list) from None


def _arg(flag, **kw):
    return flag, kw


def _int(flag, default=None):
    """An int option, required unless it has a default."""
    return _arg(flag, type=int, **({"required": True} if default is None
                                   else {"default": default}))


FAMILY = _arg("--family", choices=["cusp", "node"], required=True)
MODULE = _arg("--module", choices=["free", "normalization"], default="free")
M, D, N, P = (_int(flag) for flag in ("--m", "--d", "--n", "--p"))
PARTS = [_arg("--lambda", dest="lam", required=True), _arg("--mu", required=True),
         _arg("--nu")]

# (path, help, arguments, runner(args, fmt) -> exit code), in help order; a
# group ("oracle", "verify") has no runner and its commands follow it
COMMANDS = [
    ("nz", "numerator of the Quot zeta function", [FAMILY, M, D, MODULE],
     lambda args, fmt: _emit(
         fmt, qz.nz(SingularityFamily(args.family, args.m), args.d, args.module), _to_json)),
    ("z", "Quot zeta series, truncated in t", [FAMILY, M, D, MODULE, _int("--tprec", 8)],
     _run_z),
    ("cl", "Cohen-Lenstra numerator and full series",
     [FAMILY, M, _int("--uprec", 8), _int("--tprec", 8)], _run_cl),
    ("hall", "Hall polynomial g^lambda_mu or g^lambda_{mu,nu}",
     PARTS + [_arg("--oracle", type=int, metavar="P",
                   help="also report the brute-force count at this prime")], _run_hall),
    ("oracle", "brute-force enumeration commands", [], None),
    ("oracle quot", None,
     [FAMILY, M, D, P, _int("--max-codim"),
      _arg("--module", choices=["free", "normalization", "max-ideal"], default="free")],
     _run_quot),
    ("oracle hall", None, PARTS + [P], lambda args, fmt: _emit_count(
        oracle_mod.hall_count_oracle(*_partitions(args), args.p, budget=args.budget), fmt)),
    ("oracle matrix", None, [N, P], lambda args, fmt: _emit_count(
        oracle_mod.matrix_pair_count(args.n, args.p, budget=args.budget), fmt)),
    ("oracle solomon", None, [D, P, _int("--N")], lambda args, fmt: _emit(
        fmt, oracle_mod.solomon_census(args.d, args.p, args.N, budget=args.budget), _to_json,
        lambda census: census.coefficients(args.N))),
    ("verify", "run one identity check", [], None),
    ("verify funceq", None, [FAMILY, M, D],
     _check(lambda a: qz.funceq_check(SingularityFamily(a.family, a.m), a.d))),
    ("verify squaring", None, [M, D], _check(lambda a: qz.skew_cauchy_bounded_check(a.m, a.d))),
    ("verify t2", None, [M, D], _check(lambda a: qz.cusp_t2_check(a.m, a.d))),
    ("verify special", None, [FAMILY, M, _int("--uprec", 13)],
     _check(lambda a: cl_mod.special_values(a.family, a.m, a.uprec))),
    ("verify node22", None, [D], _check(lambda a: qz.node22_check(a.d))),
    ("verify mlimit", None, [FAMILY, D, _int("--qprec", 4), _int("--tprec", 5)],
     _check(lambda a: qz.m_limit_check(a.family, a.d, a.qprec, a.tprec))),
    ("verify positivity", None, [FAMILY, M, D],
     _check(lambda a: qz.positivity_scan(a.family, a.m, a.d))),
    ("verify limit", None,
     [FAMILY, M, _arg("--d-list", default="4,5"), _int("--uprec", 5), _int("--tprec", 3)],
     _check(lambda a: cl_mod.limit_check(a.family, a.m, _d_list(a), a.uprec, a.tprec))),
    ("verify conversion", None,
     [_int("--m", 1), _int("--d", 3), _int("--uprec", 6), _int("--tprec", 4),
      _arg("--oracle", action="store_true",
           help="cross-check Z_{mR^d} coefficients against the census at q=2")],
     _check(lambda a: cl_mod.conversion_check(a.m, a.d, a.uprec, a.tprec,
                                              with_oracle=a.oracle, budget=a.budget))),
    ("verify matrix-count", None, [N, P],
     _check(lambda a: cl_mod.matrix_count_check(a.n, a.p, budget=a.budget))),
    ("verify coh-quot", None, [FAMILY, M, P, N, _int("--r"), _arg("--d-list", required=True)],
     _check(lambda a: oracle_mod.coh_quot_invariance_check(
         a.family, a.m, a.p, a.n, a.r, _d_list(a), budget=a.budget))),
    ("table", "reproduce a published table", [_arg("which", type=int, choices=[1, 2, 3])],
     lambda args, fmt: _emit(fmt, args.which, table_json_obj,
                             lambda which: table_text(which, computed=True))),
    ("suite", "run the acceptance battery", [_arg("name", choices=["fast", "full"])],
     _run_suite),
]


class _Narrow(argparse.ArgumentParser):
    """The parser of one command: at any help or usage exit it raises
    _Narrow.Exit instead of printing, and the full parser parses again."""
    Exit = type("Exit", (Exception,), {})

    def error(self, *_):
        raise _Narrow.Exit

    print_help = error


def _build_parser(only=None):
    """The parser of every command, or a _Narrow one of the command only and
    its group."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "json"], default=argparse.SUPPRESS)
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS,
                        help="cap on enumeration work for oracle commands")
    top = (argparse.ArgumentParser if only is None else _Narrow)(
        prog="singzeta", description="Quot and Cohen-Lenstra zeta functions of y^2=x^n")
    top.add_argument("--format", choices=["text", "json"], default="text")
    top.add_argument("--budget", type=int, default=oracle_mod.DEFAULT_BUDGET)
    # the dest names appear in argparse's "required" errors
    groups = {"": top.add_subparsers(dest="command", required=True)}
    for path, help_text, arguments, run in COMMANDS:
        group, _, name = path.rpartition(" ")
        if only is not None and path not in (only, only.partition(" ")[0]):
            continue
        p = groups[group].add_parser(name, parents=[common],
                                     **({"help": help_text} if help_text else {}))
        for flag, kw in arguments:
            p.add_argument(flag, **kw)
        if run is None:
            groups[path] = p.add_subparsers(dest=path + "_command", required=True)
        else:
            p.set_defaults(run=run)
    return top


def _parse(argv):
    """argv parsed by the _Narrow parser of the command it names (its first
    command name, and the word after it for a group), else by the full one."""
    paths = [path for path, _, _, _ in COMMANDS]
    first = next((i for i, word in enumerate(argv) if word in paths), None)
    if first is not None:
        pair = " ".join(argv[first:first + 2])
        try:
            return _build_parser(pair if pair in paths else argv[first]).parse_args(argv)
        except _Narrow.Exit:
            pass
    return _build_parser().parse_args(argv)


def dispatch(argv):
    try:
        args = _parse(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_PASS
    try:
        return args.run(args, args.format)
    except BudgetExceededError as e:
        print("budget exceeded: %s" % e, file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("budget exceeded: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, WindowError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as e:
        print("internal error: %s" % e, file=sys.stderr)
        return EXIT_FAIL


def main():
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`singzeta ... | head`); point stdout at
        # devnull so the flush at shutdown does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_FAIL
    sys.exit(code)


if __name__ == "__main__":
    main()

"""Command-line front end: it parses arguments and renders results, nothing more.

Commands: nz, z, cl, hall, oracle {quot,hall,matrix,solomon}, verify {...},
table {1,2,3}, suite {fast,full}.  Exit codes: 0 success/pass, 1 verification
failure or internal error, 2 usage error (a non-prime p or a negative size
among them), 3 resource-budget error.  Results go to stdout, diagnostics to
stderr.
"""

import argparse
import json
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


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "json"], default=argparse.SUPPRESS)
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS,
                        help="cap on enumeration work for oracle commands")
    top = argparse.ArgumentParser(prog="singzeta",
                                  description="Quot and Cohen-Lenstra zeta functions of y^2=x^n")
    top.add_argument("--format", choices=["text", "json"], default="text")
    top.add_argument("--budget", type=int, default=oracle_mod.DEFAULT_BUDGET)
    sub = top.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    def fam_args(p, d=True):
        p.add_argument("--family", choices=["cusp", "node"], required=True)
        p.add_argument("--m", type=int, required=True)
        if d:
            p.add_argument("--d", type=int, required=True)

    p = add_parser("nz", help="numerator of the Quot zeta function")
    fam_args(p)
    p.add_argument("--module", choices=["free", "normalization"], default="free")

    p = add_parser("z", help="Quot zeta series, truncated in t")
    fam_args(p)
    p.add_argument("--module", choices=["free", "normalization"], default="free")
    p.add_argument("--tprec", type=int, default=8)

    p = add_parser("cl", help="Cohen-Lenstra numerator and full series")
    fam_args(p, d=False)
    p.add_argument("--uprec", type=int, default=8)
    p.add_argument("--tprec", type=int, default=8)

    p = add_parser("hall", help="Hall polynomial g^lambda_mu or g^lambda_{mu,nu}")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", default=None)
    p.add_argument("--oracle", type=int, default=None, metavar="P",
                   help="also report the brute-force count at this prime")

    po = add_parser("oracle", help="brute-force enumeration commands")
    osub = po.add_subparsers(dest="oracle_command", required=True)
    p = osub.add_parser("quot", parents=[common])
    fam_args(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--max-codim", dest="max_codim", type=int, required=True)
    p.add_argument("--module", choices=["free", "normalization", "max-ideal"],
                   default="free")
    p = osub.add_parser("hall", parents=[common])
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", default=None)
    p.add_argument("--p", type=int, required=True)
    p = osub.add_parser("matrix", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p = osub.add_parser("solomon", parents=[common])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--N", type=int, required=True)

    pv = add_parser("verify", help="run one identity check")
    vsub = pv.add_subparsers(dest="verify_command", required=True)
    p = vsub.add_parser("funceq", parents=[common])
    fam_args(p)
    p = vsub.add_parser("squaring", parents=[common])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p = vsub.add_parser("t2", parents=[common])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p = vsub.add_parser("special", parents=[common])
    p.add_argument("--family", choices=["cusp", "node"], required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--uprec", type=int, default=13)
    p = vsub.add_parser("node22", parents=[common])
    p.add_argument("--d", type=int, required=True)
    p = vsub.add_parser("mlimit", parents=[common])
    p.add_argument("--family", choices=["cusp", "node"], required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--qprec", type=int, default=4)
    p.add_argument("--tprec", type=int, default=5)
    p = vsub.add_parser("positivity", parents=[common])
    p.add_argument("--family", choices=["cusp", "node"], required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p = vsub.add_parser("limit", parents=[common])
    p.add_argument("--family", choices=["cusp", "node"], required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d-list", dest="d_list", default="4,5")
    p.add_argument("--uprec", type=int, default=5)
    p.add_argument("--tprec", type=int, default=3)
    p = vsub.add_parser("conversion", parents=[common])
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--uprec", type=int, default=6)
    p.add_argument("--tprec", type=int, default=4)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check Z_{mR^d} coefficients against the census at q=2")
    p = vsub.add_parser("matrix-count", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p = vsub.add_parser("coh-quot", parents=[common])
    p.add_argument("--family", choices=["cusp", "node"], required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d-list", dest="d_list", required=True)

    p = add_parser("table", help="reproduce a published table")
    p.add_argument("which", type=int, choices=[1, 2, 3])

    p = add_parser("suite", help="run the acceptance battery")
    p.add_argument("name", choices=["fast", "full"])
    return top


def _emit_poly(poly, fmt):
    print(json.dumps(poly.to_json_obj()) if fmt == "json" else str(poly))


def _emit_reports(reports, fmt):
    if isinstance(reports, VerificationReport):
        reports = [reports]
    if fmt == "json":
        print(json.dumps([r.to_json_obj() for r in reports], indent=2))
    else:
        for r in reports:
            print(r)
    return EXIT_PASS if all(r.status != "fail" for r in reports) else EXIT_FAIL


def _emit_suite(name, groups, fmt):
    """One line per criterion group and the failing reports of failing groups."""
    failing = {label for label, reports in groups if any(r.status == "fail" for r in reports)}
    if fmt == "json":
        print(json.dumps([{"group": label,
                           "status": "fail" if label in failing else "pass",
                           "reports": [r.to_json_obj() for r in reports]}
                          for label, reports in groups], indent=2))
    else:
        for label, reports in groups:
            print("[%s] %s" % ("FAIL" if label in failing else "PASS", label))
            for r in reports:
                if r.status == "fail":
                    print("    %s" % r)
        print("suite %s: %d/%d groups passed" % (name, len(groups) - len(failing), len(groups)))
    return EXIT_FAIL if failing else EXIT_PASS


def dispatch(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_PASS
    try:
        return _run(args)
    except BudgetExceededError as e:
        print("budget exceeded: %s" % e, file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, WindowError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as e:
        print("internal error: %s" % e, file=sys.stderr)
        return EXIT_FAIL


def _run(args):
    fmt = args.format
    cmd = args.command

    if cmd == "nz":
        fam = SingularityFamily(args.family, args.m)
        _emit_poly(qz.nz(fam, args.d, args.module), fmt)
        return EXIT_PASS

    if cmd == "z":
        coeffs = cl_mod.z_series(args.family, args.m, args.d, args.tprec, args.module)
        if fmt == "json":
            print(json.dumps({"t_prec": args.tprec,
                              "coeffs": [c.to_json_obj() for c in coeffs]}))
        else:
            for j, c in enumerate(coeffs):
                print("t^%d: %s" % (j, c))
        return EXIT_PASS

    if cmd == "cl":
        series = cl_mod.cl_series(args.family, args.m, args.uprec, args.tprec)
        if fmt == "json":
            print(json.dumps({"numerator": series.numerator.to_json_obj(),
                              "full": series.full.to_json_obj()}))
        else:
            print("numerator: %s" % series.numerator)
            print("full: %s" % series.full)
        return EXIT_PASS

    if cmd == "hall":
        lam = Partition.parse(args.lam)
        mu = Partition.parse(args.mu)
        nu = Partition.parse(args.nu) if args.nu is not None else None
        poly = (hall_mod.hall_skew(lam, mu) if nu is None
                else hall_mod.hall_general(lam, mu, nu))
        payload = {"hall": poly.to_json_obj()}
        if args.oracle is not None:
            count = hall_mod.hall_count_oracle(lam, mu, nu, args.oracle,
                                               budget=args.budget)
            payload["oracle_count"] = str(count)
            payload["formula_at_p"] = str(poly.eval_int(args.oracle))
        if fmt == "json":
            print(json.dumps(payload))
        else:
            print(poly)
            if args.oracle is not None:
                print("oracle count at p=%d: %s (formula gives %s)"
                      % (args.oracle, payload["oracle_count"], payload["formula_at_p"]))
        return EXIT_PASS

    if cmd == "oracle":
        return _run_oracle(args, fmt)
    if cmd == "verify":
        return _run_verify(args, fmt)

    if cmd == "table":
        print(json.dumps(table_json_obj(args.which)) if fmt == "json"
              else table_text(args.which, computed=True))
        return EXIT_PASS

    if cmd == "suite":
        from . import acceptance
        groups = acceptance.run_criteria(full=(args.name == "full"), budget=args.budget)
        return _emit_suite(args.name, groups, fmt)

    raise ValueError("unhandled command %r" % cmd)


def _run_oracle(args, fmt):
    cmd = args.oracle_command
    if cmd == "quot":
        census = oracle_mod.quot_census(args.family, args.m, args.d, args.p,
                                        args.max_codim, args.module.replace("-", "_"),
                                        budget=args.budget)
        if fmt == "json":
            print(json.dumps(census.to_json_obj()))
        else:
            for (n, r), c in sorted(census.counts.items()):
                print("codim=%d rank=%d count=%d" % (n, r, c))
        return EXIT_PASS
    if cmd == "hall":
        lam = Partition.parse(args.lam)
        mu = Partition.parse(args.mu)
        nu = Partition.parse(args.nu) if args.nu is not None else None
        count = hall_mod.hall_count_oracle(lam, mu, nu, args.p, budget=args.budget)
        print(json.dumps({"count": str(count)}) if fmt == "json" else count)
        return EXIT_PASS
    if cmd == "matrix":
        count = oracle_mod.matrix_pair_count(args.n, args.p, budget=args.budget)
        print(json.dumps({"count": str(count)}) if fmt == "json" else count)
        return EXIT_PASS
    if cmd == "solomon":
        census = oracle_mod.solomon_census(args.d, args.p, args.N, budget=args.budget)
        if fmt == "json":
            print(json.dumps(census.to_json_obj()))
        else:
            print(census.coefficients(args.N))
        return EXIT_PASS
    raise ValueError("unhandled oracle command %r" % cmd)


def _parse_d_list(text):
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _run_verify(args, fmt):
    cmd = args.verify_command
    if cmd == "funceq":
        fam = SingularityFamily(args.family, args.m)
        return _emit_reports(qz.funceq_check(fam, args.d), fmt)
    if cmd == "squaring":
        return _emit_reports(qz.skew_cauchy_bounded_check(args.m, args.d), fmt)
    if cmd == "t2":
        return _emit_reports(qz.cusp_t2_check(args.m, args.d), fmt)
    if cmd == "special":
        return _emit_reports(cl_mod.special_values(args.family, args.m, args.uprec), fmt)
    if cmd == "node22":
        return _emit_reports(qz.node22_check(args.d), fmt)
    if cmd == "mlimit":
        return _emit_reports(qz.m_limit_check(args.family, args.d,
                                              args.qprec, args.tprec), fmt)
    if cmd == "positivity":
        return _emit_reports(qz.positivity_scan(args.family, args.m, args.d), fmt)
    if cmd == "limit":
        return _emit_reports(cl_mod.limit_check(args.family, args.m,
                                                _parse_d_list(args.d_list),
                                                args.uprec, args.tprec), fmt)
    if cmd == "conversion":
        return _emit_reports(cl_mod.conversion_check(args.m, args.d, args.uprec,
                                                     args.tprec, with_oracle=args.oracle,
                                                     budget=args.budget), fmt)
    if cmd == "matrix-count":
        return _emit_reports(cl_mod.matrix_count_check(args.n, args.p, budget=args.budget),
                             fmt)
    if cmd == "coh-quot":
        return _emit_reports(
            oracle_mod.coh_quot_invariance_check(args.family, args.m, args.p,
                                                 args.n, args.r,
                                                 _parse_d_list(args.d_list),
                                                 budget=args.budget), fmt)
    raise ValueError("unhandled verify command %r" % cmd)


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

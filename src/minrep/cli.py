"""Command-line front end for the verification suites.

Every subcommand runs a batch of exact checks, emits a machine-readable
report (json, csv or text) and exits 0 only if all checks pass.  Exit
codes: 0 all pass, 1 check failure, 2 usage error (bad flags or config,
unwritable output), 3 internal error (any exception a suite raises).
Reports are byte-stable for fixed arguments and seed when --stable is
given (wall times omitted, sorted keys).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from fractions import Fraction

from . import bilocal, fockspace, harmonics, linalg, massless, oscrep, rootsys
from .reports import Report
from .scalars import QI, QI_ONE
from .weylalg import WeylElement, commutator

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

DEFAULT_STATE_CAP = 200_000


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise UsageError, so that every bad
    line exits 2 through ``main``, as a bad config or an oversized request
    does."""

    def error(self, message):
        raise UsageError(message)


DESK_SCALE_N = 8
TABLE1_MAX_RANK = 30   # table1 costs about rank^4.6 in type A; CI runs up to A30
MAX_TRIALS = 1000      # check-bilocal runs 1000 trials at --L 8 in about 5 s


def _bounded(lo: int, hi: int | None = None):
    """The type of an int option from lo to hi, or from lo up when hi is None."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < lo or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(
                f"must be at least {lo}" if hi is None else f"must be between {lo} and {hi}")
        return value
    return parse


def _ranks(least: int):
    """The type of a --ranks-* option: LO..HI or one rank, a nonempty range
    from least to TABLE1_MAX_RANK, kept a range so that a huge request is
    refused unbuilt."""
    def parse(text: str) -> range:
        lo, _, hi = text.partition("..")
        try:
            ranks = range(int(lo), int(hi or lo) + 1)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not LO..HI") from None
        if not ranks or ranks[0] < least or ranks[-1] > TABLE1_MAX_RANK:
            raise argparse.ArgumentTypeError(
                f"must be a nonempty range of ranks from {least} to {TABLE1_MAX_RANK}")
        return ranks
    return parse


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON file with default argument values")
    common.add_argument("--format", choices=("json", "csv", "text"), default="text")
    common.add_argument("--out", help="output path (default stdout); directory taken "
                                      "from MINREP_OUT_DIR when set")
    common.add_argument("--stable", action="store_true",
                        help="byte-stable output: no wall times")
    common.add_argument("--max-states", type=_bounded(1), default=DEFAULT_STATE_CAP,
                        help="refuse Fock bases larger than this")

    p = _Parser(
        prog="minrep",
        description="exact verification of oscillator realizations, dual pairs "
                    "and bilocal commutator algebras")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    t1 = add("table1", help="minimal-orbit dimension table")
    for fam, least in rootsys._MIN_RANK.items():
        t1.add_argument(f"--ranks-{fam.lower()}", type=_ranks(least), default=None,
                        metavar="LO..HI")

    cr = add("check-relations", help="Chevalley-Serre and structure suites")
    cr.add_argument("--algebra", choices=("su22", "unn", "so-star"), required=True)
    cr.add_argument("--n", type=_bounded(1, DESK_SCALE_N), default=2)

    dp = add("check-dual-pair", help="commutant checks")
    dp.add_argument("--algebra", choices=("su22", "so-star"), required=True)
    dp.add_argument("--n", type=_bounded(1, DESK_SCALE_N), default=2)

    cb = add("check-bilocal", help="bilocal commutator formula and friends")
    cb.add_argument("--L", type=_bounded(1, 8), default=3)
    cb.add_argument("--trials", type=_bounded(1, MAX_TRIALS), default=50)
    cb.add_argument("--seed", type=_bounded(0, 2 ** 64 - 1), default=7)

    dc = add("decompose", help="lowest-weight/gauge decomposition")
    dc.add_argument("--algebra", choices=("so-star",), default="so-star")
    dc.add_argument("--n", type=_bounded(1, DESK_SCALE_N), default=2)
    dc.add_argument("--level", type=_bounded(0), default=3)

    hm = add("harmonics", help="harmonic mode construction and checks")
    hm.add_argument("--nmax", type=_bounded(1, 16), default=6)

    add("massless", help="light-cone realization checks")

    cl = add("closure", help="flavored bilinear closure at finite cutoff")
    cl.add_argument("--family", choices=("sp-real", "u-pq", "so-star"), required=True)
    cl.add_argument("--k", type=_bounded(1, DESK_SCALE_N), default=2)
    cl.add_argument("--flavors", type=_bounded(1, 4), default=1)
    cl.add_argument("--level", type=_bounded(0), default=0)
    cl.add_argument("--pair-limit", type=_bounded(1), default=None)
    return p


def _apply_config(parser, args, argv):
    """Parse the line again with the config file's values in front of it.

    The values go through the parser's own types and choices, and a flag
    given on the line comes after them, so it wins.
    """
    if not args.config:
        return args
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {args.config}: {exc}")
    if not isinstance(data, dict):
        raise UsageError(f"config {args.config} must hold a JSON object")
    tokens = []
    for key, value in data.items():
        # a config names no further config file: one would be parsed and never read
        if key == "config" or not hasattr(args, key.replace("-", "_")):
            raise UsageError(f"unknown config key {key!r}")
        flag = f"--{key.replace('_', '-')}"
        if value is True:
            tokens.append(flag)
        elif value is not False and value is not None:
            tokens += [flag, str(value)]
    line = list(sys.argv[1:] if argv is None else argv)
    return parser.parse_args(line[:1] + tokens + line[1:])


# ---------------------------------------------------------------------------
# command implementations


def run_table1(args) -> tuple[Report, list]:
    ranks = {}
    for fam in "ABCD":
        arg = getattr(args, f"ranks_{fam.lower()}")
        if arg:
            ranks[fam] = tuple(arg)
    rep = Report("table1")   # created first, so its first record is charged with the table
    rows = rootsys.table1_report(ranks or None)
    table = []
    for r in rows:
        fam = r.algebra_label if r.algebra_label[0] not in "ABCD" else r.algebra_label[0]
        rank = 0 if fam == r.algebra_label else int(r.algebra_label[1:])
        g1, gk = rootsys.expected_dims(fam, rank)
        want_h = rootsys.expected_centralizer(fam, rank)
        ok = (r.identities_hold() and r.dim_g1 == g1 and r.gk_dim == gk
              and r.centralizer_label == want_h)
        rep.add(f"table1/{r.algebra_label}", ok,
                detail=f"H = {r.centralizer_label}, g1 = {r.dim_g1}, gk = {r.gk_dim}")
        table.append({"label": r.algebra_label, "dim_g": r.dim_g,
                      "H_label": r.centralizer_label, "dim_g1": r.dim_g1,
                      "gk_dim": r.gk_dim, "eq_identities_ok": r.identities_hold()})
    return rep, table


def _generators(algebra: str, n: int):
    """The dual pair whose A side --algebra names, and A's Chevalley set;
    su22 is the u(2,2) pair with its set relabelled."""
    if algebra == "so-star":
        pair = fockspace.dual_pair("so_star", n)
        return pair, pair.chevalley
    pair = fockspace.dual_pair("u_pq", 2 if algebra == "su22" else n)
    return pair, (oscrep.su22_generators(pair.chevalley) if algebra == "su22" else pair.chevalley)


def run_check_relations(args) -> Report:
    # created before the generators, so its first record is charged with them
    rep = Report("check-relations")
    pair, gens = _generators(args.algebra, args.n)
    rep.title += f"/{gens.algebra_label}"
    rep.extend(oscrep.check_chevalley(gens))
    rep.extend(oscrep.check_theta_sl2(gens))
    derived = oscrep.derive_cartan_matrix(gens)
    rep.add(f"{gens.algebra_label}/cartan-derived", derived == gens.cartan_matrix,
            detail=f"{derived}")
    if args.algebra == "su22":
        rep.extend(oscrep.theta_grading_check(gens, pair.polarization))
        rep.extend(oscrep.sl2_centralizer_check(gens, pair.polarization))
        # adjoint pairing holds on the compact chain nodes
        rep.add("su22/adjoint/E1F1", gens.E[0].adjoint() == gens.F[0])
        rep.add("su22/adjoint/E3F3", gens.E[2].adjoint() == gens.F[2])
    if args.algebra == "so-star":
        for i, (e, f) in enumerate(zip(gens.E[:-1], gens.F[:-1]), start=1):
            rep.add(f"{gens.algebra_label}/adjoint/E{i}", e.adjoint() == f)
        if args.n == 2:
            rep.extend(oscrep.nilpotent_cone_check(gens))
        _, crep = oscrep.casimir_defect(gens, pair.polarization)
        rep.extend(crep)
    return rep


def run_check_dual_pair(args) -> Report:
    # created before the generators, so its first record is charged with them
    rep = Report("dual-pair")
    pair, gens = _generators(args.algebra, args.n)
    if args.algebra == "su22":
        rep.title += "/helicity-u22"
        gauge_names, elements = ["h"], oscrep.u22_weight_basis(gens, pair.polarization)
    else:
        rep.title += f"/sp2-{gens.algebra_label}"
        gauge_names, elements = ["E", "F", "Q"], oscrep.so_star_pair_elements(gens)
    rep.extend(oscrep.check_dual_pair(
        pair.gauge.span, [w for _, w in elements], label=rep.title,
        names_a=gauge_names, names_b=[n for n, _ in elements]))
    if pair.gauge.raising:
        # negative control: a quadratic outside the commutant must not commute
        bad = WeylElement.monomial([("a", 1)], [("a", 1)])
        fires = not commutator(bad, pair.gauge.raising[0]).is_zero()
        rep.add(f"dual-pair/{gens.algebra_label}/negative-control", fires,
                negative_control=True,
                detail=f"a1*a1 must fail to commute with the gauge {pair.gauge.label}")
    return rep


def run_check_bilocal(args) -> Report:
    rng = random.Random(args.seed)
    rep = Report(f"check-bilocal/L{args.L}/seed{args.seed}")

    # every entry k/r comes from this table, the numerator drawn before the
    # denominator, so no entry costs a QI division
    labels = {(k, r): QI(k) / r for k in range(-9, 10) for r in range(1, 5)}

    def rnd(size):
        return {(i, j): x for i in range(size) for j in range(size)
                if (x := labels[rng.randint(-9, 9), rng.randint(1, 4)])}

    for left in range(1, args.L + 1):
        ident = bilocal.unit_matrix(left)
        sub = bilocal.verify_commutator_formula(ident, ident, left)
        for r in sub.records:
            r.check_id = f"bilocal/identity/L{left}/{r.check_id}"
        rep.extend(sub)
    # a record that compared no trial fails, so neither passes vacuously
    formula = [bilocal.verify_commutator_formula(rnd(args.L), rnd(args.L), args.L)
               for _ in range(args.trials)]
    failed = [r.records[0].defect for r in formula if not r.ok]
    rep.add(f"bilocal/random/L{args.L}/trials{args.trials}", bool(formula) and not failed,
            detail=f"seed {args.seed}", defect=failed[0] if failed else "")
    frobenius = [bilocal.frobenius_property_check(rnd(args.L), rnd(args.L), rnd(args.L)).ok
                 for _ in range(args.trials)]
    rep.add(f"bilocal/frobenius/trials{args.trials}", bool(frobenius) and all(frobenius))

    mats2 = [{(a, b): QI(1)} for a in range(2) for b in range(2)]
    kind, comm = bilocal.commutant_type(bilocal.TAlgebra(mats2, 2))
    rep.add("bilocal/commutant/full-mat2", kind == "R" and len(comm) == 1,
            detail=f"type {kind}, dim {len(comm)}")
    kind, comm = bilocal.commutant_type(bilocal.TAlgebra(bilocal.canonical_m_span("C", 1), 2))
    rep.add("bilocal/commutant/complex-scalars", kind == "C" and len(comm) == 2,
            detail=f"type {kind}, dim {len(comm)}")
    lefts = bilocal.quaternion_left_algebra(1)
    kind, comm = bilocal.commutant_type(bilocal.TAlgebra(lefts, 4))
    rep.add("bilocal/commutant/quaternion-left", kind == "H" and len(comm) == 4,
            detail=f"type {kind}, dim {len(comm)}")

    for kind_name, n in (("R", 2), ("C", 1), ("H", 1)):
        rep.extend(bilocal.canonical_form_check(kind_name, n))

    # negative control: without J the complex span at N = 2 is the identity
    # alone, whose invariance algebra is all of o(4), not u(2)
    dim = len(bilocal.invariance_algebra(bilocal.canonical_m_span("C", 2)[:1], 4))
    want = bilocal.gauge_dimension("C", 2)
    rep.add("bilocal/negative-control/C-N2-without-J", dim != want, negative_control=True,
            detail=f"dim {dim} must differ from dim u(2) = {want}")

    # negative control: with the non-symmetric M' = E_12 the closed form
    # taken at the transpose of M' must miss the Wick commutator
    size = max(2, args.L)
    fires = _misses_transposed_rhs({(0, 0): QI_ONE}, {(0, 1): QI_ONE}, size)
    rep.add("bilocal/negative-control/transposed-rhs", fires, negative_control=True,
            detail=f"[V_M(1,2), V_M'(3,4)] must differ from the closed form at tM', "
                   f"L{size}")
    return rep


def _misses_transposed_rhs(m: dict, mp: dict, size: int) -> bool:
    """Whether the closed form taken at tM' differs from the Wick commutator
    [V_M(1,2), V_M'(3,4)] of two size x size labels; for a symmetric M' the
    two agree."""
    lhs = bilocal.wick_commutator(bilocal._field(m.items(), 1, 2),
                                  bilocal._field(mp.items(), 3, 4))
    return lhs != bilocal.commutator_rhs(m, linalg.dict_transpose(mp), size)


def run_decompose(args) -> tuple[Report, list]:
    pair = fockspace.dual_pair("so_star", args.n)
    # created before the decomposition, so its first record is charged with it
    rep = Report(f"decompose/{pair.chevalley.algebra_label}/level{args.level}")
    fock = fockspace.enumerate_basis(pair.modes, args.level, max_states=args.max_states)
    table = fockspace.joint_weight_decomposition(pair, fock)
    lw = table.lowest_weight
    for level in range(args.level + 1):
        total = sum(len(vs) for (lvl, _), vs in lw.items() if lvl == level)
        rep.add(f"decompose/level{level}/bookkeeping",
                total == table.lw_dimension(level),
                detail=f"{total} lowest-weight vectors vs gauge content "
                       f"{table.lw_dimension(level)}")
        mults = [r.multiplicity for r in table.rows_at(level)]
        rep.add(f"decompose/level{level}/multiplicity-one",
                bool(mults) and all(m == 1 for m in mults), detail=f"multiplicities {mults}")
    return rep, table.as_dicts()


def run_harmonics(args) -> Report:
    rep = Report(f"harmonics/nmax{args.nmax}")
    modes = [mode for n in range(1, args.nmax + 1) for l in range(n)
             for mode in harmonics.harmonic_ladder(n, l)]
    cols = harmonics.operator_columns()
    for mode in modes:
        rep.extend(harmonics.verify_mode(mode.poly, mode.n, mode.l, mode.m, cols))
    rep.extend(harmonics.level_count_check(modes))
    rep.extend(harmonics.angular_algebra_check(cols))
    rep.add("harmonics/negative-control/z1^2",
            not harmonics.verify_mode(
                harmonics.Poly(4, {(2, 0, 0, 0): QI(1)}), 3, 0, 0, cols).ok,
            negative_control=True,
            detail="a non-harmonic polynomial must fail the eigen-checks")
    rng = random.Random(11)
    pts = [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4))
           for _ in range(20)]
    ok, compared = True, 0
    for x in pts:
        try:
            if harmonics.sphere_identity_defect(x):
                ok = False
        except harmonics.ConformalInfinityError:
            continue
        compared += 1
    rep.add("harmonics/compactification/20-points", ok and compared > 0)
    rep.add("harmonics/compactification/polynomial-identity",
            harmonics.sphere_identity_polynomial_check())
    return rep


def run_massless(args) -> Report:
    rep = Report("massless")
    rep.extend(massless.ccr_check(6))
    rep.extend(massless.vacuum_checks())
    rep.extend(massless.lightlike_identity())
    rep.extend(massless.realization_functoriality_check(3))
    fock = fockspace.enumerate_basis(list(massless.MODES), 2)
    for lvl in (0, 1, 2):
        spectrum = fockspace.helicity_spectrum(fock, lvl)
        # helicity h on level L has multiplicity ((L + h)/2 + 1)((L - h)/2 + 1)
        # for |h| <= L and h = L mod 2, and none otherwise
        want = {h: ((lvl + h) // 2 + 1) * ((lvl - h) // 2 + 1) for h in range(-lvl, lvl + 1, 2)}
        rep.add(f"massless/helicity/level{lvl}", spectrum == want, detail=f"{spectrum}")
    return rep


def run_closure(args) -> Report:
    family = args.family.replace("-", "_")
    return fockspace.truncated_closure_check(family, args.k, args.flavors,
                                             level=args.level,
                                             pair_limit=args.pair_limit,
                                             max_states=args.max_states)


# ---------------------------------------------------------------------------
# output


def emit(report: Report, args, table: list | None = None) -> str:
    if args.format == "json":
        payload = report.as_dict(stable=args.stable)
        if table is not None:
            payload["table"] = table
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        if table is not None:
            writer = csv.DictWriter(buf, fieldnames=list(table[0].keys()))
            writer.writeheader()
            writer.writerows(table)
        else:
            writer = csv.writer(buf)
            writer.writerow(["check_id", "passed", "negative_control", "detail"])
            for r in sorted(report.records, key=lambda r: r.check_id):
                writer.writerow([r.check_id, r.passed, r.negative_control, r.detail])
        text = buf.getvalue()
    else:
        text = report.to_text() + "\n"
        if table is not None:
            text += "\n" + "\n".join(str(row) for row in table) + "\n"
    out_path = args.out
    if out_path:
        out_dir = os.environ.get("MINREP_OUT_DIR")
        if out_dir and not os.path.isabs(out_path):
            out_path = os.path.join(out_dir, out_path)
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


COMMANDS = {
    "table1": run_table1,
    "check-relations": run_check_relations,
    "check-dual-pair": run_check_dual_pair,
    "check-bilocal": run_check_bilocal,
    "decompose": run_decompose,
    "harmonics": run_harmonics,
    "massless": run_massless,
    "closure": run_closure,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config(parser, args, argv)
        _validate(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = COMMANDS[args.command](args)
    except Exception as exc:
        msg = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return EXIT_INTERNAL
    if isinstance(result, tuple):
        report, table = result
    else:
        report, table = result, None
    try:
        emit(report, args, table)
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _validate(args):
    """The checks that involve two options or a basis size; each option's
    own bounds are its type."""
    if args.command in ("check-relations", "check-dual-pair") and args.algebra == "su22" \
            and args.n != 2:
        raise UsageError("--algebra su22 has rank 2: --n must be 2")
    if args.command == "decompose":
        modes = fockspace.dual_pair("so_star", args.n).modes
        if fockspace.basis_size(len(modes), args.level) > args.max_states:
            raise UsageError("requested basis exceeds --max-states; "
                             "lower --level or --n or raise the cap")
    if args.command == "closure" and args.level > 0 and fockspace.cross_check_basis_size(
            args.family.replace("-", "_"), args.k, args.flavors, args.level) > args.max_states:
        raise UsageError("the --level cross-check basis exceeds --max-states; "
                         "lower --level, --k or --flavors or raise the cap")


if __name__ == "__main__":
    sys.exit(main())

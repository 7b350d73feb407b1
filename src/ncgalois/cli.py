"""Batch front-end: run named analyses from JSON experiment specs.

Usage::

    ncgalois <command> <spec.json> [--seed N] [--tol-abs X] [--tol-rel X]
                                   [--out report.json]

Identical spec bytes (and seed) produce byte-identical reports: keys are
sorted, floats are printed at fixed precision, and BLAS threading is
pinned before numpy loads so results do not depend on the host's thread
count.  Property-check failures never abort a run; they land in the
report's "violations" array with exit status 0.  Exit 1 marks input
validation problems, exit 2 numerical (tolerance) failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_NEEDS_SEED = {"decompose", "modular", "crossed", "martingale"}


def _pin_blas_threads() -> None:
    # must happen before numpy is imported anywhere in this process
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ncgalois", description=__doc__)
    parser.add_argument("command", choices=tuple(_HANDLERS))
    parser.add_argument("spec", help="path to the experiment spec (JSON)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the spec's seed")
    parser.add_argument("--tol-abs", type=float, default=1e-12)
    parser.add_argument("--tol-rel", type=float, default=1e-9)
    parser.add_argument("--out", default=None,
                        help="report file (default: <spec>.report.json)")
    args = parser.parse_args(argv)

    _pin_blas_threads()

    from . import errors

    try:
        report_text = _run(args)
    except (errors.ValidationError, json.JSONDecodeError, FileNotFoundError,
            KeyError, TypeError, ValueError) as exc:
        print(json.dumps({"error": "validation", "kind": type(exc).__name__,
                          "detail": str(exc)}), file=sys.stdout)
        return 1
    except errors.NCGaloisError as exc:
        print(json.dumps({"error": "numerical", "kind": type(exc).__name__,
                          "detail": str(exc)}), file=sys.stdout)
        return 2

    out_path = args.out or (args.spec + ".report.json")
    from .reporting import write_atomic

    write_atomic(out_path, report_text)
    print(out_path)
    return 0


def _run(args) -> str:
    from . import reporting
    from .errors import SpecValidationError
    from .linalg import Tolerance

    with open(args.spec) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise SpecValidationError("experiment spec must be a JSON object")

    for option, value in (("--tol-abs", args.tol_abs), ("--tol-rel", args.tol_rel)):
        if not 0.0 <= value < float("inf"):   # NaN fails both comparisons
            raise SpecValidationError(f"{option} must be finite and non-negative, got {value}")
    tol = Tolerance(abs_eps=args.tol_abs, rel_eps=args.tol_rel)
    seed = args.seed if args.seed is not None else spec.get("seed")
    if seed is not None:
        seed = reporting.spec_int(seed, "seed")
    if args.command in _NEEDS_SEED and seed is None:
        raise SpecValidationError(
            f"command {args.command!r} is randomized and needs a seed"
        )

    spec_dir = os.path.dirname(os.path.abspath(args.spec))

    def resolve(path: str) -> str:
        candidate = os.path.join(spec_dir, path)
        if os.path.exists(candidate):
            return candidate
        fixtures = os.environ.get("NCGALOIS_FIXTURES")
        if fixtures:
            candidate = os.path.join(fixtures, path)
            if os.path.exists(candidate):
                return candidate
        raise SpecValidationError(f"input file not found: {path}")

    inputs: dict = {}

    def load_json_field(value, kind: str):
        if isinstance(value, str):
            path = resolve(value)
            inputs[kind] = {"path": value, "sha256": reporting.sha256_of_file(path)}
            with open(path) as fh:
                return json.load(fh)
        inputs[kind] = "inline"
        return value

    handler = _HANDLERS[args.command]
    body, violations = handler(spec, seed, tol, load_json_field)

    envelope = {
        "command": args.command,
        "seed": seed,
        "tolerances": {"abs_eps": tol.abs_eps, "rel_eps": tol.rel_eps},
        "inputs": inputs,
        "report": body,
        "violations": violations,
    }
    return reporting.dumps_canonical(envelope)


def _check_fields(spec: dict, required):
    from .reporting import check_fields

    check_fields(spec, required, {"seed"}, "spec")


def _load_group(spec, load_json_field):
    from . import reporting

    return reporting.group_from_json(load_json_field(spec["group"], "group"))


def _load_rep(spec, load_json_field):
    from . import reporting

    obj = load_json_field(spec["representation"], "representation")
    if isinstance(obj, dict) and isinstance(obj.get("group"), str):
        # a group given as a path is an input file like the others
        obj = {**obj, "group": load_json_field(obj["group"], "representation.group")}
    return reporting.rep_from_json(obj)


def _cmd_analyze_group(spec, seed, tol, load_json_field):
    from . import groups

    _check_fields(spec, ["group"])
    group = _load_group(spec, load_json_field)
    subs = groups.enumerate_subgroups(group)
    classes = groups.conjugacy_classes(group)
    body = {
        "order": group.order,
        "identity": group.identity,
        "inverses": group.inverse.tolist(),
        "element_orders": [group.element_order(a) for a in range(group.order)],
        "conjugacy_classes": [list(c) for c in classes],
        "subgroups": [list(s.members) for s in subs],
        "normal_subgroups": [
            i for i, s in enumerate(subs) if groups.is_normal(s)
        ],
    }
    return body, []


def _cmd_irreps(spec, seed, tol, load_json_field):
    import numpy as np

    from . import reporting, reps

    _check_fields(spec, ["group"])
    group = _load_group(spec, load_json_field)
    table = reps.irrep_table(group)
    basis, _ = reps.peter_weyl_basis(table)
    gram = basis @ basis.conj().T / group.order
    pw_residual = float(np.max(np.abs(gram - np.eye(group.order))))

    rng = np.random.default_rng(seed if seed is not None else 0)
    f = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    roundtrip = float(
        np.max(np.abs(reps.inverse_fourier(table, reps.fourier(table, f)) - f))
    )
    plancherel = reps.plancherel_residual(table, f)

    schur_dev = max(
        reps.schur_check(r1, r2).max_deviation
        for r1 in table.irreps for r2 in table.irreps
    )
    violations = []
    if pw_residual > 1e-10:
        violations.append({"check": "peter_weyl_orthonormality", "residual": pw_residual})

    body = reporting.irrep_table_to_json(table)
    body.update({
        "sum_of_squares": int(sum(d * d for d in table.dims)),
        "peter_weyl_residual": pw_residual,
        "fourier_roundtrip_residual": roundtrip,
        "plancherel_residual": float(plancherel),
        "schur_max_deviation_from_pattern": float(schur_dev),
    })
    return body, violations


def _cmd_decompose(spec, seed, tol, load_json_field):
    import numpy as np

    from . import reps
    from .linalg import compress, dagger, frob

    _check_fields(spec, ["representation"])
    rep = _load_rep(spec, load_json_field)
    dec = reps.decompose(rep, seed)
    u = dec.intertwiner
    unit_res = float(frob(dagger(u) @ u - np.eye(rep.dim)))

    table = dec.table
    expected = reps.direct_sum(*(table.irreps[idx] for idx, mult in dec.blocks
                                 for _ in range(mult)))
    worst = float(np.max(np.abs(compress(rep.matrices, u) - expected.matrices)))

    body = {
        "blocks": [[int(i), int(m)] for i, m in dec.blocks],
        "irrep_dims": list(table.dims),
        "intertwiner_unitarity_residual": unit_res,
        "block_diagonalization_residual": worst,
    }
    violations = []
    if worst > 1e-9:
        violations.append({"check": "block_diagonalization", "residual": worst})
    return body, violations


def _cmd_galois(spec, seed, tol, load_json_field):
    from . import galois as gal
    from .algebras import StarAlgebra

    _check_fields(spec, ["representation"])
    rep = _load_rep(spec, load_json_field)
    report = gal.galois_map(StarAlgebra.full(rep.dim), rep, tol=tol)
    minimal, witness = gal.is_minimal_action(report)

    body = {
        "mode": report.mode,
        "proper": report.proper,
        "present_irreps": list(report.present),
        "missing_irreps": list(report.missing),
        "rows": [
            {
                "subgroup": list(r.subgroup.members),
                "fixed_dim": r.fixed_dim,
                "fixed_id": r.fixed_id,
                "bicommutant_ok": r.bicommutant_ok,
                "bicommutant_residual": r.bicommutant_residual,
            }
            for r in report.rows
        ],
        "equivalence_classes": report.equivalence_classes,
        "collision_candidates": [
            [list(a), list(b)] for a, b in report.collision_candidates
        ],
        "anti_monotone_pairs_checked": report.anti_monotone_pairs,
        "injective": report.injective,
        "minimal_action": minimal,
        "minimal_action_witness_dim": witness,
    }
    return body, _violation_rows(report.violations)


def _violation_rows(violations) -> list:
    """The report rows of a ``GaloisReport``'s (check, where, residual) violations."""
    return [{"check": check, "where": where, "residual": res} for check, where, res in violations]


def _cmd_modular(spec, seed, tol, load_json_field):
    import numpy as np

    from . import modular, ncprob, reporting
    from .algebras import StarAlgebra

    _check_fields(spec, ["state"])
    rho = reporting.matrix_from_json(load_json_field(spec["state"], "state"), "state")
    state = ncprob.State(rho).require_faithful()
    n = state.dim

    space = modular.gns(StarAlgebra.full(n), state)
    md = modular.tomita(space, tol)
    identities = modular.modular_identity_residuals(md)
    tt = modular.tomita_takesaki_residuals(md, tol=tol)

    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    kms = {
        str(beta): modular.kms_residual(rho, a, b, beta, tol)
        for beta in (0.5, 1.0, 2.0)
    }

    violations = []
    for name, value in identities.items():
        if value > 1e-9:
            violations.append({"check": f"identity:{name}", "residual": value})
    if kms["1.0"] > 1e-10:
        violations.append({"check": "kms_at_beta_1", "residual": kms["1.0"]})

    body = {
        "convention": "flow(t): rho^(it) A rho^(-it); equilibrium at beta = 1",
        "gns_dim": space.dim,
        "identity_residuals": identities,
        "antiunitarity_residual": modular.antiunitarity_residual(md),
        "tomita_takesaki": tt,
        "kms_residuals": kms,
    }
    return body, violations


def _cmd_crossed(spec, seed, tol, load_json_field):
    import numpy as np

    from . import algebras, crossed, reporting
    from .errors import SpecValidationError

    _check_fields(spec, ["group", "base", "action"])
    group = _load_group(spec, load_json_field)

    base_spec = spec["base"]
    if not isinstance(base_spec, dict) or "kind" not in base_spec:
        raise SpecValidationError('base must be an object with a "kind"')
    kind = base_spec["kind"]
    if kind not in ("full", "diagonal", "scalars", "span"):
        raise SpecValidationError(f"unknown base kind {kind!r}")
    fields = {"kind", "matrices", "dim"} if kind == "span" else {"kind", "dim"}
    reporting.check_fields(base_spec, fields, (), "base")
    dim = reporting.spec_int(base_spec["dim"], "base dim")
    if dim < 1:
        raise SpecValidationError(f"base dim must be at least 1, got {dim}")
    if kind == "span":
        mats = [reporting.matrix_from_json(mj, "base matrix") for mj in base_spec["matrices"]]
        base = algebras.StarAlgebra.from_span(mats, dim, tol=tol)
    else:
        base = {
            "full": algebras.StarAlgebra.full,
            "diagonal": algebras.StarAlgebra.diagonal,
            "scalars": algebras.StarAlgebra.scalars,
        }[kind](dim)

    action_spec = spec["action"]
    if not isinstance(action_spec, dict) or "kind" not in action_spec:
        raise SpecValidationError('action must be an object with a "kind"')
    akind = action_spec["kind"]
    if akind not in ("ad", "table"):
        raise SpecValidationError(f"unknown action kind {akind!r}")
    field, noun, make = {"ad": ("unitaries", "unitary", crossed.ad_action),
                         "table": ("tables", "table", crossed.table_action)}[akind]
    reporting.check_fields(action_spec, {"kind", field}, (), "action")
    data = np.array([reporting.matrix_from_json(mj, f"action {noun}")
                     for mj in action_spec[field]])
    action = make(group, base, data)

    cp = crossed.crossed_product(base, action, tol)
    structure = algebras.block_structure(cp.algebra, seed=seed, tol=tol)
    structure_residual = algebras.block_structure_residual(cp.algebra, structure)
    gal_report, pullbacks = crossed.crossed_galois(cp, tol)

    cov = crossed.covariance_check(cp)

    body = {
        "carrier_dim": cp.carrier_dim,
        "base_algebra": reporting.algebra_to_json(base),
        "algebra_dim": cp.algebra.dim,
        "covariance_residual": cov,
        "block_structure": [[int(n), int(m)] for n, m in structure.blocks],
        "block_structure_residual": float(structure_residual),
        "is_factor": len(structure.blocks) == 1,
        "galois_rows": [
            {
                "subgroup": list(r.subgroup.members),
                "fixed_dim": r.fixed_dim,
                "bicommutant_ok": r.bicommutant_ok,
            }
            for r in gal_report.rows
        ],
        "pullback_dims": {
            ",".join(map(str, members)): dim for members, dim in pullbacks.items()
        },
    }
    return body, _violation_rows(gal_report.violations)


def _cmd_martingale(spec, seed, tol, load_json_field):
    from . import groups, ncprob, reporting
    from .algebras import StarAlgebra
    from .errors import SpecValidationError

    _check_fields(spec, ["group", "representation", "chain", "x", "state"])
    group = _load_group(spec, load_json_field)
    rep = _load_rep(spec, load_json_field)
    if rep.group != group:
        raise SpecValidationError("representation belongs to a different group")

    chain = [groups.Subgroup(group, tuple(reporting.spec_int(m, "chain member")
                                          for m in members))
             for members in spec["chain"]]
    x = reporting.matrix_from_json(load_json_field(spec["x"], "x"), "x")
    state = ncprob.State(
        reporting.matrix_from_json(load_json_field(spec["state"], "state"), "state")
    ).require_faithful()

    m = StarAlgebra.full(rep.dim)
    filtration = ncprob.filtration_from_chain(m, rep, chain, tol)
    mart = ncprob.martingale_from(x, filtration)
    conv = ncprob.convergence_check(mart, state)

    axiom_tables = {}
    violations = []
    for t, sub in enumerate(chain):
        report = ncprob.verify_cond_exp_axioms(filtration, t, state, seed=seed)
        key = ",".join(map(str, sub.members))
        axiom_tables[key] = report.residuals
        for name, value in report.violations:
            violations.append(
                {"check": f"cond_exp:{name}", "subgroup": list(sub.members),
                 "residual": value}
            )
    if not conv.nondecreasing:
        violations.append({"check": "moment_monotonicity", "residual": None})
    if not conv.state_invariant:
        violations.append({"check": "state_not_invariant_under_top_subgroup",
                           "residual": None})

    body = {
        "chain": [list(s.members) for s in chain],
        "moments": list(conv.moments),
        "nondecreasing": conv.nondecreasing,
        "terminal_residual": conv.terminal_residual,
        "chain_ends_trivially": conv.chain_ends_trivially,
        "state_invariant": conv.state_invariant,
        "top_algebra_equals_ambient": filtration.dense_in_ambient,
        "axiom_tables": axiom_tables,
    }
    return body, violations


_HANDLERS = {
    "analyze-group": _cmd_analyze_group,
    "irreps": _cmd_irreps,
    "decompose": _cmd_decompose,
    "galois": _cmd_galois,
    "modular": _cmd_modular,
    "crossed": _cmd_crossed,
    "martingale": _cmd_martingale,
}


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

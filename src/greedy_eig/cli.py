"""Command-line front end.

Three subcommands: ``gen`` writes an operator file from a problem spec,
``solve`` runs one solver configuration and emits a CSV trace plus a result
JSON, ``compare`` runs several variants on the same problem and merges their
traces into one long-format CSV.  Configs are JSON with strict unknown-key
rejection so that reproducibility mistakes fail loudly.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .adm import AdmConfig
from .errors import GreedyEigError, InvalidSpec, ParseError, VersionError
from .greedy import GreedyConfig, Variant, run
from .problems import ProblemSpec, save_operator
from .reference_oracle import dense_reference, error_metrics

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ITER_CAP = 3
EXIT_STEP_FAILURE = 4

TRACE_COLUMNS = (
    "n", "lambda_n", "lambda_decrease", "z_norm_a", "euler_residual",
    "eig_residual_h", "alpha_n", "err_lambda", "err_vec_h", "err_vec_a",
    "wall_time_ms",
)

_ADM_KEYS = {f.name for f in fields(AdmConfig)}
_SOLVER_KEYS = {f.name for f in fields(GreedyConfig)}


def _reject_unknown(raw: dict, allowed: set, where: str) -> None:
    if not isinstance(raw, dict):
        raise InvalidSpec(f"{where} must be a JSON object")
    unknown = set(raw) - allowed
    if unknown:
        raise InvalidSpec(f"unknown key(s) {sorted(unknown)} in {where}")


def parse_solver_config(raw: dict, seed_override=None) -> GreedyConfig:
    _reject_unknown(raw, _SOLVER_KEYS, "solver config")
    adm_raw = raw.get("adm", {})
    _reject_unknown(adm_raw, _ADM_KEYS, "adm config")
    kwargs = dict(raw)
    kwargs.pop("adm", None)
    if "variant" in kwargs:
        try:
            kwargs["variant"] = Variant(kwargs["variant"])
        except ValueError:
            raise InvalidSpec(
                f"unknown variant {kwargs['variant']!r}; expected one of "
                f"{[v.value for v in Variant]}"
            ) from None
    if seed_override is not None:
        kwargs["rng_seed"] = seed_override
    try:
        return GreedyConfig(adm=AdmConfig(**adm_raw), **kwargs)
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"bad solver config: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path} is not valid JSON: {exc}") from exc


def _load_run(args, entry: str, where: str):
    """Read a ``solve`` or ``compare`` config: return its ``entry`` value,
    problem spec, output path and oracle flag."""
    raw = _load_json(args.config)
    _reject_unknown(raw, {"problem", entry, "output", "oracle"}, where)
    if "problem" not in raw or entry not in raw:
        raise InvalidSpec(f"{where} needs 'problem' and '{entry}' entries")
    spec = ProblemSpec.from_dict(raw["problem"])
    out = args.out or raw.get("output")
    if out is None:
        raise InvalidSpec("no output path (use --out or the 'output' key)")
    oracle = raw.get("oracle", False)
    if not isinstance(oracle, bool):
        raise InvalidSpec(f"'oracle' must be true or false, got {oracle!r}")
    return raw[entry], spec, out, oracle


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def _trace_rows(result, ref, nu):
    """Yield CSV field lists for one run (err columns blank without oracle);
    ``nu`` is the run's shift, so err_vec_a uses the shift z_norm_a uses."""
    errs = None if ref is None else error_metrics(
        result.iterates, [row.lambda_n for row in result.trace], ref, nu)
    for idx, row in enumerate(result.trace):
        err_fields = ["", "", ""] if errs is None else [
            _fmt(errs[key][idx])
            for key in ("err_lambda", "err_vec_h", "err_vec_a")]
        yield [
            str(row.n), _fmt(row.lambda_n), _fmt(row.lambda_decrease),
            _fmt(row.z_norm_a), _fmt(row.euler_residual),
            _fmt(row.eig_residual_h), _fmt(row.alpha_n),
            *err_fields, _fmt(row.wall_time * 1000.0),
        ]


def _write_csv(path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _exit_code_for(reason: str) -> int:
    if reason == "max_iter":
        return EXIT_ITER_CAP
    if reason.startswith("step_failure"):
        return EXIT_STEP_FAILURE
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = ProblemSpec.from_dict(_load_json(args.config))
    op, m = spec.build()
    save_operator(op, m, args.out)
    print(f"wrote operator ({op.d} dims, sizes {op.sizes}, "
          f"{op.num_terms} terms) to {args.out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    solver_raw, spec, out, oracle = _load_run(args, "solver", "run config")
    solver_cfg = parse_solver_config(solver_raw, args.seed)

    op, m = spec.build()
    ref = dense_reference(op, m) if oracle else None
    result = run(op, m, solver_cfg)
    _write_csv(out, TRACE_COLUMNS, _trace_rows(result, ref, solver_cfg.nu))
    summary = {
        "reason": result.reason,
        "lambda": result.lam,
        "iterations": result.iterations,
    }
    if ref is not None:
        summary["mu1"] = ref.mu1
        summary["err_lambda"] = abs(result.lam - ref.mu1)
    with open(out + ".json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"{result.reason}: lambda = {result.lam:.12g} "
          f"after {result.iterations} iterations")
    return _exit_code_for(result.reason)


def _variant_label(cfg: GreedyConfig) -> str:
    prefix = "orthogonal-" if cfg.orthogonal else ""
    return prefix + cfg.variant.value


def cmd_compare(args) -> int:
    variants, spec, out, oracle = _load_run(args, "variants", "compare config")
    if not isinstance(variants, list) or not variants:
        raise InvalidSpec("'variants' must be a non-empty list")
    cfgs = [parse_solver_config(v_raw, args.seed) for v_raw in variants]
    # rows are told apart only by their label
    labels = [_variant_label(cfg) for cfg in cfgs]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise InvalidSpec(f"variants share the label(s) {repeated}; each rule "
                          "and flavour may appear once")

    op, m = spec.build()
    ref = dense_reference(op, m) if oracle else None
    runs = []
    for label, cfg in zip(labels, cfgs):
        try:
            result = run(op, m, cfg)
            runs.append((label, result, None, cfg.nu))
        except GreedyEigError as exc:
            runs.append((label, None, f"{type(exc).__name__}: {exc}", cfg.nu))
    runs.sort(key=lambda item: item[0])

    rows = []
    for label, result, failure, nu in runs:
        if result is None:
            rows.append([label, *[""] * len(TRACE_COLUMNS),
                         f"failed: {failure}"])
            continue
        for fields in _trace_rows(result, ref, nu):
            rows.append([label, *fields, result.reason])
    _write_csv(out, ("variant", *TRACE_COLUMNS, "reason"), rows)
    for label, result, failure, _ in runs:
        status = failure or (f"{result.reason}, lambda = {result.lam:.12g}")
        print(f"{label}: {status}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greedy-eig",
        description="Greedy rank-one solvers for Kronecker-structured "
                    "symmetric eigenvalue problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, needs_out in (
        ("gen", cmd_gen, True),
        ("solve", cmd_solve, False),
        ("compare", cmd_compare, False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=needs_out, default=None,
                       help="output path")
        if name != "gen":   # gen runs no solver, so it has no seed to take
            p.add_argument("--seed", type=int, default=None,
                           help="override the solver RNG seed")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidSpec, ParseError, VersionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GreedyEigError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_STEP_FAILURE


if __name__ == "__main__":
    sys.exit(main())

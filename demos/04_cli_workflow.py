"""
Reproducible runs through the command-line interface
====================================================

The `greedy-eig` console script drives everything from JSON configs and
writes CSV traces, so a benchmark can be rerun bit for bit later.  This
script exercises the full loop in a temporary directory: generate an
operator file, solve it, and compare several rules on the same problem.
The directory is removed when the script ends.
"""

import csv
import json
import pathlib
import tempfile

from greedy_eig.cli import main

with tempfile.TemporaryDirectory(prefix="greedy_eig_demo_") as tmp:
    workdir = pathlib.Path(tmp)
    print(f"working in {workdir}")

    # step 1: generate a binary operator file from a problem description
    gen_cfg = workdir / "problem.json"
    gen_cfg.write_text(json.dumps({
        "kind": "RandomKronecker", "d": 2, "sizes": [12, 12], "K": 2,
        "seed": 4015,
    }))
    op_path = workdir / "operator.geig"
    main(["gen", "--config", str(gen_cfg), "--out", str(op_path)])

    # step 2: solve it with one rule, oracle columns enabled
    solve_cfg = workdir / "solve.json"
    solve_cfg.write_text(json.dumps({
        "problem": {"kind": "FromFile", "path": str(op_path)},
        "solver": {"variant": "rayleigh", "max_iter": 60,
                   "tol_residual": 1e-10, "rng_seed": 3},
        "oracle": True,
    }))
    trace_path = workdir / "trace.csv"
    code = main(["solve", "--config", str(solve_cfg),
                 "--out", str(trace_path)])
    print(f"solve exit code: {code}")

    with open(trace_path) as fh:
        rows = list(csv.reader(fh))
    print(f"trace: {len(rows) - 1} iterations, columns: {', '.join(rows[0])}")
    print("last row:", rows[-1])

    # step 3: compare rules on the same operator in one long-format CSV
    compare_cfg = workdir / "compare.json"
    compare_cfg.write_text(json.dumps({
        "problem": {"kind": "FromFile", "path": str(op_path)},
        "variants": [
            {"variant": "rayleigh", "max_iter": 30, "rng_seed": 3},
            {"variant": "residual", "max_iter": 30, "rng_seed": 3},
            {"variant": "rayleigh", "orthogonal": True, "max_iter": 30,
             "rng_seed": 3},
        ],
    }))
    cmp_path = workdir / "compare.csv"
    main(["compare", "--config", str(compare_cfg), "--out", str(cmp_path)])
    print(f"comparison written to {cmp_path}")

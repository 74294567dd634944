"""Every pinned experiment output against one record, ``csv_sha256.json``:
per sweep, the sha256 of each CSV it writes, its summary rows and its
trajectory row count. A change that keeps every number the package computes
keeps these files byte for byte.

Six sweeps cover all five schedule families, all three experiments and
horizon sharing. They run once, in a child with one BLAS thread, since the
thread count can change the order of a BLAS sum. The sums depend on numpy and
its BLAS: where either differs from the recorded one, their test skips and
names the difference. The summary rows (exact work, gaps to 1e-12) and row
counts compare everywhere. A change that moves them on purpose records sums,
rows and counts again with

    PYTHONPATH=src python tests/test_csv_sha256.py --record
"""

import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest

import tunable_oracle
from tunable_oracle.harness import (ExperimentConfig, default_config, emit_outputs,
                                   run_experiment)

RECORD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "csv_sha256.json")


TINY_EXP1 = replace(default_config(1), d=5, n=6, p=1.0, r=1.0, mu=0.1, delta_ref=(1e-3,),
                    N=(20,), seeds=(0, 1), schedules=("tunable", "constant"))
TINY_EXP2 = ExperimentConfig(experiment=2, d=8, n=5, p=1.0, sigma=1e-2, mu=0.1, r=-1.0,
                             delta_ref=(1e-3,), N=(15,), seeds=(0,),
                             schedules=("tunable", "constant"))
# N > N_R, so the online rule runs past the bootstrap
TINY_EXP3 = replace(default_config(3), d=8, n=5, p=1.0, sigma=1e-2, mu=0.1, r=0.0,
                    delta_ref=(1e-4,), N=(60,), seeds=(0,),
                    schedules=("online_tunable", "constant", "poly3", "linear"))

CONFIGS = {
    "exp1": replace(default_config(1), N=(40, 150), seeds=(0, 1)),
    "exp2": replace(default_config(2), N=(40, 150), seeds=(0, 1)),
    "exp3": replace(default_config(3), N=(60, 130)),
    "tiny_exp1": TINY_EXP1, "tiny_exp2": TINY_EXP2, "tiny_exp3": TINY_EXP3,
}


def _platform():
    """What the bytes depend on besides the package: numpy and its BLAS."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = {}
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def _entry(out_dir):
    """A sweep's record entry from the files it wrote; ``%.17g`` parses back
    to the same double."""
    sums = {}
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name), "rb") as fh:
            sums[name] = hashlib.sha256(fh.read()).hexdigest()
    with open(os.path.join(out_dir, "summary.csv"), newline="") as fh:
        summary = [{"schedule": row["schedule"], "N": int(row["N"]),
                    **{key: float(row[key]) for key in
                       ("delta_ref", "median_gap", "mean_gap", "total_inner_work")}}
                   for row in csv.DictReader(fh)]
    with open(os.path.join(out_dir, "trajectory.csv"), newline="") as fh:
        trajectory_rows = sum(1 for _ in csv.reader(fh)) - 1
    return {"sha256": sums, "summary": summary, "trajectory_rows": trajectory_rows}


def _sweep_outputs(out_dir):
    """Run every sweep once in a child with one BLAS thread; each config's
    record entry, keyed by its name in CONFIGS."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(tunable_oracle.__file__)))
    subprocess.run([sys.executable, os.path.abspath(__file__), out_dir],
                   env=env, check=True, timeout=600)
    return {name: _entry(os.path.join(out_dir, name)) for name in CONFIGS}


def _record():
    with open(RECORD) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return _sweep_outputs(str(tmp_path_factory.mktemp("sweeps")))


def test_record_holds_every_config():
    entries = _record()["configs"]
    assert entries.keys() == CONFIGS.keys(), "record again with --record"
    for name, entry in entries.items():
        assert entry.keys() == {"sha256", "summary", "trajectory_rows"}, name
        assert entry["sha256"] and entry["summary"] and entry["trajectory_rows"] > 0, name


def test_csv_bytes_match_the_record(outputs):
    record = _record()
    here = _platform()
    moved = [f"{key} {record[key]} (here {here[key]})" for key in here
             if record[key] != here[key]]
    if moved:
        pytest.skip("the sums were recorded under " + ", ".join(moved))
    changed = []
    for name in CONFIGS:
        got, want = outputs[name]["sha256"], record["configs"][name]["sha256"]
        changed += [f"{name}/{file}" for file in sorted(got.keys() | want.keys())
                    if got.get(file) != want.get(file)]
    assert not changed, f"these CSVs changed their bytes: {changed}"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_summary_rows_match_the_record(name, outputs):
    got, want = outputs[name], _record()["configs"][name]
    assert got["trajectory_rows"] == want["trajectory_rows"]
    assert len(got["summary"]) == len(want["summary"])
    exact = ("schedule", "N", "delta_ref", "total_inner_work")
    for row, ref in zip(got["summary"], want["summary"]):
        assert [row[key] for key in exact] == [ref[key] for key in exact]
        assert row["median_gap"] == pytest.approx(ref["median_gap"], rel=1e-12)
        assert row["mean_gap"] == pytest.approx(ref["mean_gap"], rel=1e-12)


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        with tempfile.TemporaryDirectory() as out_dir:
            record = dict(_platform(), configs=_sweep_outputs(out_dir))
        with open(RECORD, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:  # the child: write each sweep's CSVs under the given directory
        for name, config in CONFIGS.items():
            emit_outputs(run_experiment(config), os.path.join(sys.argv[1], name))

"""The bytes of every CSV that three small sweeps write, against sha256 sums
recorded in ``csv_sha256.json``. A change that keeps every number the
package computes keeps these files byte for byte.

The sweeps run in a child process with one BLAS thread, since the thread
count can change the order of a BLAS sum. Together they cover all five
schedule families, all three experiments and horizon sharing. The sums
depend on numpy and its BLAS: where either differs from the recorded one,
the test skips and names the difference. A change that moves the bytes on
purpose records them again with

    PYTHONPATH=src python tests/test_csv_sha256.py --record
"""

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
from tunable_oracle.harness import default_config, emit_outputs, run_experiment

RECORD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "csv_sha256.json")


CONFIGS = {
    "exp1": replace(default_config(1), N=(40, 150), seeds=(0, 1)),
    "exp2": replace(default_config(2), N=(40, 150), seeds=(0, 1)),
    "exp3": replace(default_config(3), N=(60, 130)),
}


def _platform():
    """What the bytes depend on besides the package: numpy and its BLAS."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = {}
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def _sweep_sums(out_dir):
    """Run the sweeps in a child with one BLAS thread; the sha256 of each
    file written, keyed by its path under ``out_dir``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(tunable_oracle.__file__)))
    subprocess.run([sys.executable, os.path.abspath(__file__), out_dir],
                   env=env, check=True, timeout=600)
    sums = {}
    for root, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                sums[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return sums


def test_csv_bytes_match_the_record(tmp_path):
    with open(RECORD) as fh:
        record = json.load(fh)
    here = _platform()
    moved = [f"{key} {record[key]} (here {here[key]})" for key in here
             if record[key] != here[key]]
    if moved:
        pytest.skip("the sums were recorded under " + ", ".join(moved))
    sums = _sweep_sums(str(tmp_path))
    changed = sorted(name for name in sums.keys() | record["sha256"].keys()
                     if sums.get(name) != record["sha256"].get(name))
    assert not changed, f"these CSVs changed their bytes: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        with tempfile.TemporaryDirectory() as out_dir:
            record = dict(_platform(), sha256=_sweep_sums(out_dir))
        with open(RECORD, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:  # the child: write each sweep's CSVs under the given directory
        for name, config in CONFIGS.items():
            emit_outputs(run_experiment(config), os.path.join(sys.argv[1], name))

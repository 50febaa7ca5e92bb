"""Whole runs of the two benchmark workloads, seed 1, against their golden digests.

A change that moves any output byte, printed line or exit code fails here,
naming what moved; see golden_digests.py for what is recorded and how to
regenerate it.
"""

import json

import numpy as np
import pytest

import golden_digests


@pytest.mark.parametrize("workload, seed", golden_digests.CASES)
def test_run_matches_its_golden_digests(workload, seed, tmp_path):
    path = golden_digests.case_path(workload, seed)
    recorded = json.loads(path.read_text(encoding="utf-8"))
    if recorded["numpy"] != np.__version__:
        pytest.skip(f"{path.name} was made with numpy {recorded['numpy']}; this is numpy {np.__version__}")
    got = golden_digests.run_case(workload, seed, tmp_path)
    differ = golden_digests.differences(recorded, got)
    assert not differ, f"differ from {path.name}: {', '.join(differ)}"

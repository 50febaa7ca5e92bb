"""Golden digests of whole pipeline runs: what each command prints and writes.

Each case runs `synth`, `extract`, `classify` and `anomaly` in process and
records what they did. A benchmark workload's case takes its profiles from
bench/workloads.py and runs the commands bench/run.py gives its children.
The ci-corpus case replays the CI round trip's run-a: the profiles in
tests/ci_corpus_profiles.json, synth with seed 1, user 000's first label
renamed vélo, extract, then classify and anomaly with seed 0; its user 002
is the one user the 30-trip minimum drops. Each case records:
- each command line, its exit code and its stdout;
- one digest per corpus user directory, of what synth wrote;
- the sha256 of every file extract, classify and anomaly wrote;
- the Python and numpy versions that made them.

The digests hold bits that depend on numpy and the platform's libm, so
tests/test_golden.py skips where the running numpy is not the recorded one.

Regenerate tests/golden/*.json, after a change that is meant to move
outputs, with:

    PYTHONPATH=src python tests/golden_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from tripkin.cli import main as tripkin

GOLDEN = Path(__file__).resolve().parent / "golden"
BENCH = Path(__file__).resolve().parents[1] / "bench"
CI_PROFILES = Path(__file__).resolve().parent / "ci_corpus_profiles.json"

# (workload, seed) of each case; its file is tests/golden/<workload>-seed<seed>.json.
CASES = (("paper-shape", 1), ("long-trips", 1), ("ci-corpus", 1))


def case_path(workload: str, seed: int) -> Path:
    return GOLDEN / f"{workload}-seed{seed}.json"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_digest(directory: Path) -> str:
    """sha256 over each file's relative path and content sha256, in path order."""
    files = sorted(p for p in directory.rglob("*") if p.is_file())
    return _sha256("".join(f"{p.relative_to(directory).as_posix()}\0{_sha256(p.read_bytes())}\n" for p in files).encode())


def relabel_velo(root: Path) -> None:
    """Rename the modality of user 000's first label row to vélo, as CI's sed does."""
    labels = root / "Data" / "000" / "labels.txt"
    header, first, *rest = labels.read_text(encoding="utf-8").splitlines(keepends=True)
    labels.write_text(header + first.rsplit("\t", 1)[0] + "\tvélo\n" + "".join(rest), encoding="utf-8")


def run_case(workload: str, seed: int, work: Path) -> dict:
    """Run the case's four commands with work as the working directory and digest what they did."""
    if workload == "ci-corpus":
        profiles, prepare, run_seed = json.loads(CI_PROFILES.read_text(encoding="utf-8")), relabel_velo, 0
    else:
        if str(BENCH) not in sys.path:
            sys.path.insert(0, str(BENCH))
        from workloads import WORKLOADS

        wl = WORKLOADS[workload]
        profiles, prepare, run_seed = wl.profiles(), wl.prepare, seed
    (work / "profiles.json").write_text(json.dumps(profiles), encoding="utf-8")
    argvs = [
        ["synth", "--profiles", "profiles.json", "--out", "corpus", "--seed", str(seed)],
        ["extract", "--root", "corpus", "--out", "out"],
        *([cmd, "--features", "out/features.csv", "--out", "out", "--seed", str(run_seed)] for cmd in ("classify", "anomaly")),
    ]
    commands, corpus = [], {}
    cwd = os.getcwd()
    os.chdir(work)  # relative paths keep the printed paths alike everywhere
    try:
        for argv in argvs:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = tripkin(argv)
            commands.append({"command": " ".join(argv), "exit": code, "stdout": stdout.getvalue()})
            if argv[0] == "synth":
                corpus = {user.name: _tree_digest(user) for user in sorted(Path("corpus", "Data").iterdir())}
                if prepare:
                    prepare(Path("corpus"))
    finally:
        os.chdir(cwd)
    outputs = {p.name: _sha256(p.read_bytes()) for p in sorted((work / "out").iterdir())}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commands": commands,
        "corpus": corpus,
        "outputs": outputs,
    }


def differences(recorded: dict, got: dict) -> list[str]:
    """Names of the commands, corpus user directories and output files whose digests differ."""
    differ = [
        f"{cmd['command'].split()[0]} {key}"
        for old, cmd in zip(recorded["commands"], got["commands"])
        for key in ("command", "exit", "stdout")
        if old[key] != cmd[key]
    ]
    for part, prefix in (("corpus", "corpus/Data/"), ("outputs", "out/")):
        names = sorted(set(recorded[part]) | set(got[part]))
        differ += [prefix + name for name in names if recorded[part].get(name) != got[part].get(name)]
    return differ


def regenerate(workdir: Path) -> None:
    for workload, seed in CASES:
        work = workdir / f"{workload}-seed{seed}"
        work.mkdir()
        digest = run_case(workload, seed, work)
        case_path(workload, seed).write_text(json.dumps(digest, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {case_path(workload, seed)}")


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        regenerate(Path(workdir))

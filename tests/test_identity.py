"""Byte identity: the fixed CLI runs of scripts/identity_outputs.sh write the
files whose digests scripts/identity.sha256 holds."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_outputs_match_committed_digests(tmp_path):
    # the script runs `python`; make that the interpreter running the tests
    env = dict(os.environ, PATH=f"{Path(sys.executable).parent}{os.pathsep}{os.environ['PATH']}")
    proc = subprocess.run(
        ["bash", str(ROOT / "scripts" / "identity_outputs.sh"), "--check", str(ROOT),
         str(tmp_path / "ident")],
        capture_output=True, text=True, env=env, timeout=600,
    )
    report = [line for line in proc.stdout.splitlines()
              if line.startswith(("differs ", "missing ", "new "))]
    assert proc.returncode == 0, "\n".join(report + [proc.stderr])

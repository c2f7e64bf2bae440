"""The README's library tour runs as written and gives what its comments say."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_quick_tour_runs_as_documented():
    readme = (ROOT / "README.md").read_text()
    (tour,) = re.findall(r"## Library quick tour\n\n```python\n(.*?)```", readme, re.S)
    # the values the tour's comments claim, printed after it has run
    claims = "[result.alt, result.dc, alternation_along(g2, glued), alternation_along(f6, gap_family_chain(tree6))]"
    script = f"import json\n{tour}\nprint(json.dumps({claims}))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    alt, dc, glued_alt, gap_alt = json.loads(run.stdout)
    assert (alt, dc) == (5, 2)
    assert glued_alt >= 25
    assert gap_alt == 63

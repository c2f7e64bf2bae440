"""Every registry check's outcome on every function of four populations.

The populations are exhaustive n = 1, exhaustive n = 3 at the default caps
and with the bs, C and DT caps at 2, and the standard family instances;
together they reach every skip reason. An outcome is the status and the
observed values, in key order, with each value's type and text, as the text
report prints them. ``check_outcomes.json`` holds the registry (name, kind
and description), one digest per check, and a readable sample: each check's
first outcome per status and skip reason. Regenerate it, only when an
outcome is meant to change, with
``PYTHONPATH=src python tests/test_check_outcomes.py``.
"""

import hashlib
import json
from pathlib import Path

from boolfn import measures, verify

DATA = Path(__file__).with_name("check_outcomes.json")

POPULATIONS = [
    ("exhaustive1", verify.Population.exhaustive(1), {}),
    ("exhaustive3", verify.Population.exhaustive(3), {}),
    ("exhaustive3-caps2", verify.Population.exhaustive(3), dict(bs_cap=2, cert_cap=2, dt_cap=2)),
    ("families", verify.Population.explicit(verify.standard_family_instances()), {}),
]


def outcomes() -> dict[str, list[tuple[str, str, str]]]:
    """Per check, one (key, function, outcome) per function, in population
    order; the key is the status, or for a skip the status and its reason."""
    out: dict[str, list[tuple[str, str, str]]] = {name: [] for name in verify.CHECKS}
    for label, population, caps in POPULATIONS:
        for record in (r for stack in population.stacks() for r in measures.Chunk(stack, **caps).records()):
            for check in verify.CHECKS.values():
                status, observed = check.run(record)
                key = f"skip: {observed['reason']}" if status == "skip" else status
                values = " ".join(f"{k}={type(v).__name__}:{v}" for k, v in observed.items())
                out[check.name].append((key, f"{label} {record.fn_id()}", f"{status} {values}"))
    return out


def snapshot() -> dict:
    registry = [f"{c.name} [{c.kind}] {c.description}" for c in verify.CHECKS.values()]
    digests, sample = {}, {}
    for name, rows in outcomes().items():
        text = "\n".join(f"{fn} {outcome}" for _, fn, outcome in rows)
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
        sample[name] = {}
        for key, fn, outcome in rows:
            # an n = 15 table is 8192 hex digits; the digest holds it whole
            fn = fn if len(fn) <= 60 else fn[:56] + "..."
            sample[name].setdefault(key, f"{fn} {outcome}")
    return {"registry": registry, "digests": digests, "sample": sample}


def test_every_check_outcome_is_pinned():
    expected = json.loads(DATA.read_text())
    got = snapshot()
    assert got["registry"] == expected["registry"]
    assert got["sample"] == expected["sample"]
    changed = [name for name, digest in expected["digests"].items() if got["digests"][name] != digest]
    assert not changed


def test_every_skip_reason_is_reached():
    sample = json.loads(DATA.read_text())["sample"]
    reasons = {key for keys in sample.values() for key in keys if key.startswith("skip: ")}
    assert len(reasons) == 10, sorted(reasons)


if __name__ == "__main__":
    DATA.write_text(json.dumps(snapshot(), indent=1) + "\n")

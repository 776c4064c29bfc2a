"""The option surface only shrinks, and every option has a user.

A ``PlatformConfig`` field is a promise to test the platform with more
than one value of it. A field nobody sets is a constant wearing a
knob's clothes: it belongs as an UPPER_CASE name beside the code that
reads it (DESIGN.md "Configuration").
"""

import dataclasses
import re
from pathlib import Path

from repro.core import PlatformConfig

REPO_ROOT = Path(__file__).resolve().parents[2]
ROOTS = ("src", "tests", "benchmarks", "perfbench", "examples", "scripts")
DEFINITION = REPO_ROOT / "src" / "repro" / "core" / "platform.py"

MAX_FIELDS = 38  # ratchet: lower it when a field goes, never raise it

# Deployment sizes and credentials stay configurable although no caller
# varies them today — siblings of the ``lcm_replicas`` that perfbench
# does vary.
DEPLOYMENT = {"api_replicas", "etcd_size", "mongo_size", "metrics_auth"}


def test_field_count_only_goes_down():
    assert len(dataclasses.fields(PlatformConfig)) <= MAX_FIELDS


def test_every_field_is_set_somewhere():
    sources = [path.read_text() for root in ROOTS
               for path in sorted((REPO_ROOT / root).rglob("*.py"))
               if path != DEFINITION]
    fields = dataclasses.fields(PlatformConfig)
    assert DEPLOYMENT <= {field.name for field in fields}
    unset = []
    for field in fields:
        if field.name in DEPLOYMENT:
            continue
        setter = re.compile(rf"\b{field.name}\s*=(?!=)"
                            rf"|[\"']{field.name}[\"']\s*:")
        if not any(setter.search(text) for text in sources):
            unset.append(field.name)
    assert not unset, (
        f"PlatformConfig fields no caller sets: {unset} — make each a "
        "module constant beside its reader, or add the caller that "
        "needs a second value")

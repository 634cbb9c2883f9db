"""docs/configuration.md must match the configuration surface exactly.

The reference page is generated-by-hand but *checked* by machine, in
both directions: every ``IMMOptions`` / ``ServiceOptions`` field, every
``REPRO_*`` environment variable the source tree reads, and every CLI
flag ``repro.cli`` defines must be documented — and every field, variable
and flag the page documents must still exist.  Adding a knob without
documenting it, or removing one without deleting its row, breaks CI.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.imm.options import IMMOptions
from repro.service.options import ServiceOptions

REPO = Path(__file__).resolve().parents[2]
DOC = REPO / "docs" / "configuration.md"
SRC = REPO / "src" / "repro"


@pytest.fixture(scope="module")
def doc_text():
    assert DOC.exists(), "docs/configuration.md is missing"
    return DOC.read_text()


def _source_env_vars():
    names = set()
    for path in SRC.rglob("*.py"):
        names.update(re.findall(r"REPRO_[A-Z_]+[A-Z]", path.read_text()))
    return names


def _cli_flags():
    text = (SRC / "cli.py").read_text()
    return set(re.findall(r'"(--[a-z][a-z-]*)"', text))


def _section(doc_text: str, heading: str) -> str:
    """The body of the ``## `` section whose title starts with ``heading``."""
    parts = re.split(r"^## ", doc_text, flags=re.M)
    matches = [p for p in parts if p.startswith(heading)]
    assert matches, f"{DOC} has no section {heading!r}"
    return matches[0]


def _table_names(section: str) -> set:
    """First-column backticked names of a section's table rows."""
    return set(re.findall(r"^\| `([^`]+)` \|", section, flags=re.M))


def test_every_imm_option_documented(doc_text):
    missing = [
        f.name for f in dataclasses.fields(IMMOptions)
        if f"`{f.name}`" not in doc_text
    ]
    assert not missing, f"IMMOptions fields missing from {DOC}: {missing}"


def test_every_service_option_documented(doc_text):
    missing = [
        f.name for f in dataclasses.fields(ServiceOptions)
        if f"`{f.name}`" not in doc_text
    ]
    assert not missing, f"ServiceOptions fields missing from {DOC}: {missing}"


def test_every_env_var_documented(doc_text):
    env_vars = _source_env_vars()
    assert env_vars, "no REPRO_* variables found in src — test is broken"
    missing = sorted(v for v in env_vars if f"`{v}`" not in doc_text)
    assert not missing, f"env vars missing from {DOC}: {missing}"


def test_every_cli_flag_documented(doc_text):
    flags = _cli_flags()
    assert flags, "no CLI flags found in repro.cli — test is broken"
    missing = sorted(f for f in flags if f"`{f}`" not in doc_text)
    assert not missing, f"CLI flags missing from {DOC}: {missing}"


def test_documented_imm_options_exist(doc_text):
    documented = _table_names(_section(doc_text, "`IMMOptions`"))
    assert documented, "no IMMOptions rows parsed — test is broken"
    fields = {f.name for f in dataclasses.fields(IMMOptions)}
    stale = sorted(documented - fields)
    assert not stale, f"{DOC} documents removed IMMOptions fields: {stale}"


def test_documented_service_options_exist(doc_text):
    documented = _table_names(_section(doc_text, "`ServiceOptions`"))
    assert documented, "no ServiceOptions rows parsed — test is broken"
    fields = {f.name for f in dataclasses.fields(ServiceOptions)}
    stale = sorted(documented - fields)
    assert not stale, f"{DOC} documents removed ServiceOptions fields: {stale}"


def test_documented_env_vars_exist(doc_text):
    documented = set(re.findall(r"`(REPRO_[A-Z_]+[A-Z])`", doc_text))
    assert documented, "no REPRO_* variables parsed — test is broken"
    stale = sorted(documented - _source_env_vars())
    assert not stale, f"{DOC} documents env vars no source reads: {stale}"


def test_documented_cli_flags_exist(doc_text):
    documented = set(re.findall(r"`(--[a-z][a-z-]*)`", doc_text))
    assert documented, "no CLI flags parsed — test is broken"
    stale = sorted(documented - _cli_flags())
    assert not stale, f"{DOC} documents CLI flags repro.cli lacks: {stale}"

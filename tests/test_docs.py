"""The public surface as documented: ``udfgrid.__all__`` and the README."""

import re
from pathlib import Path

import udfgrid
from udfgrid import DFKind, GridSpec, SparseDFGrid, dfield, io, load_scene_config, spatial
from udfgrid.core import MAX_COORD, MIN_LENGTH

README = Path(__file__).resolve().parent.parent / "README.md"
SOURCES = Path(udfgrid.__file__).resolve().parent


def _readme_block(heading: str, lang: str) -> str:
    """The first ```lang block under ``heading`` in the README."""
    text = README.read_text(encoding="utf-8")
    section = text.split(heading, 1)[1]
    match = re.search(rf"```{lang}\n(.*?)```", section, re.DOTALL)
    assert match, f"README {heading!r} has no {lang} block"
    return match.group(1)


def test_every_exported_name_resolves():
    missing = [name for name in udfgrid.__all__ if not hasattr(udfgrid, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from udfgrid import *", namespace)
    assert set(udfgrid.__all__) <= set(namespace)


def test_readme_quick_start_runs(capsys):
    code = _readme_block("## Library quick start", "python")
    exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})
    assert re.fullmatch(r"roundtrip CD: \d+\.\d{6} m\n", capsys.readouterr().out)


def test_readme_scene_config_loads(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text(_readme_block("### Scene configuration files", "ini"))
    scene, scan = load_scene_config(path)
    assert len(scene.primitives) == 2
    assert scan is not None and len(scan.sensor_origins) == 2


def test_readme_states_the_coordinate_bound():
    text = README.read_text(encoding="utf-8").split("## Conventions worth knowing", 1)[1]
    match = re.search(r"`MAX_COORD` = 2\^(\d+)", text)
    assert match, "README conventions state no coordinate bound"
    assert 2.0 ** int(match.group(1)) == MAX_COORD


def test_readme_states_the_length_bound():
    text = README.read_text(encoding="utf-8").split("## Conventions worth knowing", 1)[1]
    match = re.search(r"`MIN_LENGTH` = 2\^(-\d+)", text)
    assert match, "README conventions state no length bound"
    assert 2.0 ** int(match.group(1)) == MIN_LENGTH


def test_readme_states_the_memory_bounds():
    text = README.read_text(encoding="utf-8").split("## Conventions worth knowing", 1)[1]
    stated = {name: re.search(rf"{name} is 2\^(\d+)", text) for name in
              ("working budget", "stored-entry bound")}
    assert all(stated.values()), "README conventions state no memory bound"
    assert 2 ** int(stated["working budget"].group(1)) == spatial._ENTRY_BUDGET
    assert 2 ** int(stated["stored-entry bound"].group(1)) == dfield._ENTRY_BOUND
    block = re.search(r"blocks of (\d+) rows\s+\(`io\._ASCII_ROWS`\)", text)
    assert block, "README conventions state no PLY block size"
    assert int(block.group(1)) == io._ASCII_ROWS
    # A grid's bytes per voxel, as its arrays' item sizes: the codes and values it
    # keeps, and the indices it rebuilds on each read.
    grid = SparseDFGrid(GridSpec((0, 0, 0), 1.0, (2, 2, 2)), DFKind.UED, False, [[1, 0, 1]], [0.5])
    kept = re.search(r"A grid holds (\d+) B per voxel", text)
    rebuilt = re.search(r"int64 copy \((\d+) B per voxel\)", text)
    assert kept and rebuilt, "README conventions state no grid size per voxel"
    assert int(kept.group(1)) == grid.codes().itemsize + grid.values.itemsize
    assert int(rebuilt.group(1)) == grid.indices.itemsize * grid.indices.shape[1]
    udfg = re.search(r"blocks of the working\s+budget, 2\^(\d+) records", text)
    assert udfg, "README conventions state no UDFG block size"
    assert 2 ** int(udfg.group(1)) == spatial._ENTRY_BUDGET


def test_the_argument_contract_lives_in_core():
    """Only ``core`` checks values against MAX_COORD or coerces input rows by reshaping.

    Other modules call ``core.as_rows``, ``as_point``, ``as_count``,
    ``as_length`` and ``as_flag``.  Clipping to MAX_COORD bounds an output
    and is allowed.  Nor does another module test a scalar's type against
    bool or the numpy scalar types: the number, count and flag rules live
    in ``core`` too.
    """
    rule = re.compile(
        r"<=\s*MAX_COORD|MAX_COORD\s*>="  # a bound check: x <= MAX_COORD, also false for NaN
        r"|asarray\(.*\)\.reshape\(\s*-?1,\s*3\s*\)"  # a row coercion
        r"|isinstance\(.*(\bbool\b|np\.bool_|np\.integer|np\.floating)"  # a scalar rule
    )
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(SOURCES.glob("*.py")) if path.name != "core.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if rule.search(line)
    ]
    assert found == []


def test_only_the_owner_keeps_state_on_a_cloud():
    """Only ``spatial`` keeps what is derived from a cloud on it (``spatial.support``).

    Elsewhere nothing writes an attribute onto an object other than the one
    being built (``object.__setattr__(self, ...)``), reaches into an object's
    ``vars`` or ``__dict__``, or reads a private attribute by name.
    """
    rule = re.compile(
        r"__setattr__\(\s*(?!self\b)"  # a write onto another object
        r"|\bsetattr\(|\bvars\(|__dict__"
        r"|getattr\([^,]+,\s*[\"']?_"  # a private attribute read by name
    )
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(SOURCES.glob("*.py")) if path.name != "spatial.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if rule.search(line)
    ]
    assert found == []

"""The example models shipped in `docs/models`, which every test reads by
file name through this module, and two references the test files share.

`path(name)` is a model's file, `config(name)` its parsed JSON (a new
dict each call) and `model(name)` what `load_model` builds from it;
`builder(name)` is `model(name)` as a zero-argument callable, for lists
that mix shipped models with a test's own builders.
"""

import csv
import functools
import io
import json
import sys
from pathlib import Path

from gwolab.modelio import load_model

DIR = Path(__file__).resolve().parents[1] / "docs" / "models"
NAMES = sorted(p.stem for p in DIR.glob("*.json"))


def path(name: str) -> Path:
    return DIR / f"{name}.json"


def config(name: str) -> dict:
    return json.loads(path(name).read_text())


def model(name: str):
    return load_model(str(path(name)))


def builder(name: str):
    """`model(name)` named `name`, which pytest takes as its parameter id."""
    build = functools.partial(model, name)
    build.__name__ = name
    return build


def csv_writer_bytes(header, rows) -> bytes:
    """What csv.writer makes of the rows, floats as format(x, ".17g")."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows([v if isinstance(v, (int, str)) else format(float(v), ".17g") for v in row] for row in rows)
    return fh.getvalue().encode()


def rerecord(names, file: Path, recorders: dict) -> None:
    """Rewrite the pins of `file` named GROUP/CASE (e.g. `eta_fdd_pmf/c1-k1`)
    from the code imported, and leave every other entry's bytes as they
    are.  `recorders` maps each group to (the function that computes a
    case's pin, the group's cases)."""
    known = [f"{group}/{case}" for group, (_, cases) in recorders.items() for case in cases]
    if not names or not set(names) <= set(known):
        usage = f"usage: python {sys.argv[0]} GROUP/CASE ...\nwhere GROUP/CASE is one of\n  "
        raise SystemExit(usage + "\n  ".join(known))
    pins = json.loads(file.read_text())
    for name in names:
        group, case = name.split("/")
        pins[group][case] = recorders[group][0](case)
    file.write_text(json.dumps(pins, indent=0) + "\n")

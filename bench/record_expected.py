"""Write the recorded answers that the reproduce and tables checks compare against.

    python3 bench/record_expected.py

Run it only when a change of behaviour is intended: it records whatever the
current source computes.  expected/reproduce.json holds every row of
run_reproduction (section, name, passed, detail).  expected/tables.json
holds, for each corpus table in its shipped basis, the facts that a basis
change must not alter.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from nassoc import corpus, moduli, reproduce, structure  # noqa: E402

from workloads import CLASSES, EXPECTED_DIR  # noqa: E402


def record_reproduce() -> dict:
    rows, _ = reproduce.run_reproduction(seed=0)
    return {"rows": [[r.section, r.name, r.passed, r.detail] for r in rows]}


def record_tables() -> dict:
    tables = {}
    idempotents = {}
    for name in CLASSES:
        algebra = corpus.load_algebra(name)
        idem = reproduce.find_table_idempotent(algebra)
        idempotents[name] = idem
        facts = {"dim": algebra.dim, "parametric": algebra.is_parametric()}
        if not algebra.is_parametric():
            facts["wedderburn_dims"] = list(structure.wedderburn(algebra).dims())
            facts["orbit_dim"] = moduli.orbit_dim(algebra)
            facts["peirce"] = None
            if idem is not None:
                split = structure.peirce(algebra, algebra.basis_element(idem))
                flags = [split.a_half_zero, split.a0_ideal, split.a1_ideal, split.cross_products_zero]
                facts["peirce"] = [list(split.dims()), flags]
        tables[name] = facts
    return {"tables": tables, "idempotents": idempotents}


def main():
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name, record in (("tables", record_tables()), ("reproduce", record_reproduce())):
        path = EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()

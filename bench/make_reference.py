"""Write ``bench/reference.json``, the record every benchmark item is checked against.

    PYTHONPATH=src python -m nilj.cli report --primes 5,7 --out report.txt
    python3 bench/make_reference.py --report report.txt.json

The reference holds computed truth, not the bundled golden claims: J5,2 and
J5,3 fail the Jordan identity and |Aut(J4,6)(F_5)| is 400.

* ``catalog``: the record of every instance any seed can pick (the sampled
  bindings plus every extra binding in the pool).  Its Q-field ranks (power
  filtration, annihilator, derivations, Z^2, B^2, H^2) and the Jordan flag are
  cross-checked against an independent ``sympy`` computation from the
  structure constants, so the file does not rest on the code under test alone.
* ``separation``: every row of the report's separation section, keyed by pair.
* ``census``: admissible count, orbit count and |Aut| over F_5 per parent and
  rank, computed on the parent's own basis (the benchmark uses random bases).

This takes a few minutes; it is run by hand when the reference must change.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations_with_replacement, product
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import sympy  # noqa: E402

import workloads as W  # noqa: E402
from nilj import catalog  # noqa: E402


def catalog_records():
    out = {}
    for name in catalog.names():
        bindings = list(catalog.sample_bindings(name))
        if catalog.get(name).params:
            bindings += W.extra_binding_pool(name)
        for b in bindings:
            item = W.CatalogItem(catalog.instance_label(name, b), name, b, catalog.instantiate(name, b), 0)
            out[item.key] = W.run_catalog(item)
            check_with_sympy(item.key, item.A, out[item.key])
    return out


# -- independent Q-field ranks ------------------------------------------------------


def check_with_sympy(label, A, rec):
    n = A.dim
    c = [[[sympy.Rational(str(A.sc(i, j).get(k, 0))) for k in range(n)] for j in range(n)] for i in range(n)]

    def mul(x, y):
        return [sum(x[i] * y[j] * c[i][j][k] for i in range(n) for j in range(n)) for k in range(n)]

    def rank(rows):
        return sympy.Matrix(rows).rank()

    def basis_of(vectors):
        if not vectors:
            return []
        M = sympy.Matrix(vectors).T
        return [list(v) for v in M.columnspace()]

    units = [[sympy.Integer(int(i == k)) for k in range(n)] for i in range(n)]
    powers = [units]
    while powers[-1]:
        k = len(powers) + 1
        vecs = [mul(u, v) for i in range(1, k // 2 + 1)
                for u in powers[i - 1] for v in powers[k - i - 1]]
        powers.append(basis_of(vecs))
    power_dims = [len(p) for p in powers]
    ann_dim = n - rank([[c[i][j][k] for i in range(n)] for j in range(n) for k in range(n)])
    der_rows = []
    for i, j, k in product(range(n), repeat=3):
        # D(e_i e_j) - D(e_i) e_j - e_i D(e_j), coordinate k; unknown D[r][m] at r*n+m
        row = [sympy.Integer(0)] * (n * n)
        for m in range(n):
            row[k * n + m] += c[i][j][m]
        for r in range(n):
            row[r * n + i] -= c[r][j][k]
            row[r * n + j] -= c[i][r][k]
        der_rows.append(row)
    der_dim = n * n - rank(der_rows)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {p: t for t, p in enumerate(pairs)}

    def theta_row(x, y, sign, row):
        # sign * theta(x, y) for coordinate vectors x, y
        for i in range(n):
            for j in range(n):
                if x[i] and y[j]:
                    row[index[(min(i, j), max(i, j))]] += sign * x[i] * y[j]

    # central-extension component of the linearized Jordan identity
    # sum_{a,b,c} ((bc)d)a = (ab)(cd) + (bc)(ad) + (ac)(bd)
    z2_rows = []
    jordan = True
    for a, b, cc in combinations_with_replacement(range(n), 3):
        for d in range(n):
            row = [sympy.Integer(0)] * len(pairs)
            lhs = [sympy.Integer(0)] * n
            for x, y, z in ((a, b, cc), (b, a, cc), (cc, a, b)):
                w = mul(units[d], mul(units[y], units[z]))
                theta_row(units[x], w, 1, row)
                lhs = [s + t for s, t in zip(lhs, mul(units[x], w))]
            rhs = [sympy.Integer(0)] * n
            for (x, y), (z, w) in (((a, b), (cc, d)), ((b, cc), (a, d)), ((a, cc), (b, d))):
                u, v = mul(units[x], units[y]), mul(units[z], units[w])
                theta_row(u, v, -1, row)
                rhs = [s + t for s, t in zip(rhs, mul(u, v))]
            z2_rows.append(row)
            jordan &= lhs == rhs
    z2 = len(pairs) - rank(z2_rows)
    b2 = rank([[c[i][j][k] for (i, j) in pairs] for k in range(n)])
    want = {
        "power_dims": power_dims, "ann_dim": ann_dim, "der_dim": der_dim,
        "z2": z2, "b2": b2, "h2": z2 - b2, "jordan": jordan,
    }
    got = dict(rec, der_dim=rec["fingerprint"][5])
    bad = {k: (got[k], v) for k, v in want.items() if got[k] != v}
    if bad:
        raise SystemExit(f"sympy disagrees on {label}: {bad}")


# -- separation and census ---------------------------------------------------------


def separation_records(report_path):
    doc = json.loads(Path(report_path).read_text())
    rows = next(s["rows"] for s in doc["sections"] if s["key"] == "separation")
    instances = W.separation_instances()
    keys = [W.pair_key(a[2], b[2]) for i, a in enumerate(instances) for b in instances[i + 1:]]
    if len(keys) != len(rows):
        raise SystemExit(f"report has {len(rows)} separation rows, expected {len(keys)}")
    out = {}
    for key, row in zip(keys, rows):
        l1, l2 = key.split(" -- ")
        if row["pair"] not in (f"{l1} ~ {l2}", f"{l1} | {l2}"):
            raise SystemExit(f"report row {row['pair']!r} is out of order at {key!r}")
        out[key] = row
    return out


def census_records():
    out = {}
    for name, r in W.census_keys():
        A5 = W.algebra.reduce_mod(catalog.instantiate(name), 5)
        out[f"{name} r={r}"] = W.run_census(W.CensusItem(f"{name} r={r}", name, r, (A5,)))
    return out


def dump(ref, fh):
    """One JSON entry per line, so a changed item shows as one changed line."""
    sections = []
    for section, entries in sorted(ref.items()):
        lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(entries.items()))
        sections.append(f"{json.dumps(section)}: {{\n{lines}\n}}")
    fh.write("{\n" + ",\n".join(sections) + "\n}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--report", required=True, help="report.txt.json written by `nilj report --primes 5,7`")
    ap.add_argument("--out", default=str(BENCH / "reference.json"))
    args = ap.parse_args()
    ref = {
        "catalog": catalog_records(),
        "separation": separation_records(args.report),
        "census": census_records(),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        dump(ref, fh)
    print(f"wrote {args.out}: " + ", ".join(f"{k} {len(v)}" for k, v in ref.items()))


if __name__ == "__main__":
    main()

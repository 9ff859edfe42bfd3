"""Record the outputs the benchmark checks against, into expected.json.

Run once at the commit whose outputs are the reference, from the root of
the repository:

    PYTHONPATH=src python3 perfbench/pin.py

It takes a few minutes: it runs every pool graph of the corpus and
toughness on J_8.  A later commit must reproduce these outputs byte for
byte; re-pinning is only for a deliberate change of output.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import check
import corpus
import passes


def main() -> int:
    from toughkit import build_jm, cli, cutsets_of_size, enumerate_regular, serialize_graph6
    from toughkit import toughness, verify
    expected: dict = {}
    for workload, argv in passes.CLI_ARGV.items():
        rc, out, _ = passes.call_cli(cli, argv)
        expected[workload] = {"exit": rc, "stdout": check.digest(out)}
    survivors = json.loads(out)["survivors"]  # the last workload is census
    expected["census"]["survivors"] = [s["graph6"] for s in survivors]

    expected["corpus"] = {}
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        path = os.path.join(tmp, "g.g6")
        for labelings in corpus.pool():
            for g6 in labelings:
                with open(path, "w", encoding="ascii") as fh:
                    fh.write(g6 + "\n")
                digests = []
                for which in passes.INVARIANTS:
                    rc, out, _ = passes.call_cli(cli, ["invariant", which, "--input", path])
                    if rc != 0:
                        raise SystemExit(f"invariant {which} exit {rc} on {g6}")
                    digests.append(check.digest(out))
                expected["corpus"][g6] = digests

    jm = {m: build_jm(m).graph for m in (7, 8, 9)}
    fixed: dict = {}
    for m in (7, 8):
        value = toughness(jm[m]).value
        fixed[f"toughness_jm{m}"] = f"{value.numerator}/{value.denominator}"
    fixed["cutset_counts"] = [len(cutsets_of_size(jm[m], s)) for m, s in passes.CUTSET_CASES]
    for n, r in passes.ENUMERATIONS:
        lines = [serialize_graph6(g) for g in enumerate_regular(n, r)]
        fixed[f"classes_n{n}r{r}"] = check.digest("\n".join(lines))
    expected["fixed"] = fixed

    expected["claims"] = {
        claim: check.digest(verify.ledger_json(verify.run_ledger(claims=[claim])))
        for claim in passes.CLAIM_IDS
    }
    with open(os.path.join(passes.HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

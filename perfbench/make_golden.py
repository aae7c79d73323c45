"""Write golden.json: the digest of every pool item's canonical output.

Usage: python3 perfbench/make_golden.py [WORKLOAD ...]

Run it only at a commit whose outputs are trusted (it was run at the seed
commit); the benchmark then fails any item whose output differs.  It takes
a few minutes, most of it in the (7,2) genus items.  For genus_sweep it also
prints the index [G : H] distribution of each (context, tuple length) pool.
"""

from __future__ import annotations

import json
import statistics
import sys

import workloads as wl


def main() -> None:
    names = sys.argv[1:] or list(wl.WORKLOADS)
    wl.import_library()
    golden = wl.load_golden() if wl.GOLDEN.exists() else {}
    for name in names:
        table, index = {}, {}
        for item in wl.all_pool_items(name):
            out = item.run()
            table[item.id] = wl.digest(item.canon(out))
            if name == "genus_sweep":
                index.setdefault(item.id.rsplit("/", 1)[0], []).append(out[0].index)
        for pool, values in index.items():
            print(
                "%s: %d tuples, %d give H = G, index median %g, max %d"
                % (pool, len(values), values.count(1), statistics.median(values), max(values)),
                file=sys.stderr,
            )
        golden[name] = table
        print("%s: %d items, sha256 %s" % (name, len(table), wl.table_digest(table)), file=sys.stderr)
    with open(wl.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

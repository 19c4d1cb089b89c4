"""Record `expected.json`: the digest of every fixed query's output at this commit.

Run from the root of a checkout, only when a change is meant to alter outputs:

    python3 bench/record.py
"""

import json

from run import cold_start, import_package

import_package()
import workloads as wl  # noqa: E402  (needs the package path set above)

expected = {}
for workload in wl.WORKLOADS:
    for q in wl.build(workload, 0, False, {}):
        if q.text is not None:
            expected[q.id] = wl.digest(q.text(q.run()))
for rel, (_, table_digest) in wl.order_tables().items():
    expected[f"poset-queries/order-table/n8/{rel}"] = table_digest
expected["setup/orbit-type"] = wl.digest(cold_start()[1].stdout)
wl.EXPECTED.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")
print(f"{len(expected)} digests written to {wl.EXPECTED}")

"""The SHA-256 of a JSON document with every "elapsed_ms" field dropped and its
keys sorted, so that two runs of the same verification compare equal.

    python .github/json_sha256.py OUT.json PINNED_SHA256

Prints the digest, and exits non-zero unless it is the pinned one."""

import hashlib
import json
import sys


def strip(obj):
    if isinstance(obj, dict):
        return {k: strip(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [strip(v) for v in obj]
    return obj


def main(argv):
    _, path, pinned = argv
    with open(path) as f:
        got = hashlib.sha256(json.dumps(strip(json.load(f)), sort_keys=True).encode()).hexdigest()
    if got != pinned:
        sys.exit("%s hashes to %s, pinned %s" % (path, got, pinned))
    print("%s hashes to its pinned %s" % (path, got))


if __name__ == "__main__":
    main(sys.argv)

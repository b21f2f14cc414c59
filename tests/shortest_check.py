"""Check serialization._shortest, the shortest round-trip digit kernel of the
JSON float tables, against Python on a seeded sample of doubles.

    PYTHONPATH=src python tests/shortest_check.py --count 10000000 --seed 1

The kernel must write ``float.__repr__(x)`` for every finite x (json's NaN,
Infinity and -Infinity otherwise).  The script exits 1 on the first value
whose text differs, naming it, and 0 after the whole sample.  The tier-1
tests run the same check on 10**5 values.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from teich2 import serialization

# values per kernel call
BLOCK = 100_000


def fixed_values() -> np.ndarray:
    """Zeros, non-finite values, the extreme doubles, and the powers of two
    and of ten around the kernel's range [1e-4, 1e16) with their
    neighbours, of both signs."""
    powers = [2.0**k for k in range(-20, 60)] + [10.0**k for k in range(-8, 20)]
    near = [math.nextafter(x, d) for x in powers for d in (0.0, math.inf)]
    values = powers + near + [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    return np.array(values + [-x for x in values] + [0.0, -0.0, math.nan, math.inf, -math.inf])


def random_block(rng: np.random.Generator, n: int) -> np.ndarray:
    """n doubles, a quarter of each kind: random bit patterns, a third of
    them with any exponent and the rest with exponents around the kernel's
    range; decimals of 1 to 17 digits from 10**-5 to 10**16; integers below
    2**54; and normal deviates scaled by 10**-6 to 10**17."""
    q = n // 4
    bits = rng.integers(0, 2**63, q, dtype=np.int64) | (rng.integers(0, 2, q) << 63)
    exponent = rng.integers(1023 - 16, 1023 + 56, q)  # 2**-16 to 2**55
    near = rng.random(q) < 2 / 3
    bits[near] = (bits[near] & ~(0x7FF << 52)) | (exponent[near] << 52)
    digits = rng.integers(1, 18, q)
    whole = (rng.integers(0, 10**17, q) // 10 ** (17 - digits)).astype(float)
    places = digits - 1 - rng.integers(-5, 17, q)  # about 10**-5 to 10**16
    decimals = np.where(places >= 0, whole / 10.0 ** np.maximum(places, 0),
                        whole * 10.0 ** np.maximum(-places, 0))
    integers = rng.integers(1, 2**54, q).astype(float)
    scaled = rng.standard_normal(n - 3 * q) * 10.0 ** rng.integers(-6, 18, n - 3 * q)
    return np.concatenate([bits.view(np.float64), decimals, integers, scaled])


def texts(values: np.ndarray) -> list[str]:
    """The kernel's text of each value."""
    fields = serialization._shortest(values)
    lines = np.concatenate([fields, np.full((len(values), 1), ord("\n"), np.uint8)], axis=1)
    return lines.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def first_mismatch(values: np.ndarray) -> tuple[float, str, str] | None:
    """(x, kernel text, Python's text) for the first value the kernel writes
    differently, or None."""
    expected = list(map(serialization._json_float, values.tolist()))
    got = texts(values)
    for x, mine, python in zip(values.tolist(), got, expected):
        if mine != python:
            return x, mine, python
    return None


def check(count: int, seed: int) -> tuple[float, str, str] | None:
    """The first mismatch among fixed_values() and count seeded random
    values, or None."""
    rng = np.random.default_rng(seed)
    found = first_mismatch(fixed_values())
    done = 0
    while found is None and done < count:
        n = min(BLOCK, count - done)
        found = first_mismatch(random_block(rng, n))
        done += n
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=10**7)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    found = check(args.count, args.seed)
    if found is not None:
        x, mine, python = found
        print(f"mismatch at {x!r} ({x.hex()}): kernel {mine!r}, Python {python!r}")
        return 1
    print(f"{args.count} seeded doubles and {len(fixed_values())} fixed ones match")
    return 0


if __name__ == "__main__":
    sys.exit(main())

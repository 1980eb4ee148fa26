"""Reference mutator: ``fuzzing.mutate`` written on ``randint``, ``choice``
and ``randrange``.

``fuzzing.mutate`` draws from ``rng.getrandbits`` directly, with the
rejection sampling that ``random.Random`` applies inside those three calls.
``reference_mutate`` is the plain version.  tests/test_fuzzing.py runs both
on twin generators and checks, after every call, that the output bytes and
the generator state are equal, so every fuzzing session, and every artifact
it writes, is unchanged by the faster draw.
"""

import random

from specvm.fuzzing import MUTATORS


def reference_mutate(data: bytes, rng: random.Random, corpus: list[bytes],
                     max_len: int) -> bytes:
    """Apply a havoc stack of 1 to 8 elementary mutations."""
    buf = bytearray(data)
    for _ in range(rng.randint(1, 8)):
        op = rng.choice(MUTATORS)
        if op == "bitflip" and buf:
            i = rng.randrange(len(buf))
            buf[i] ^= 1 << rng.randrange(8)
        elif op == "byteset":
            if buf:
                buf[rng.randrange(len(buf))] = rng.randrange(256)
            else:
                buf.append(rng.randrange(256))
        elif op == "insert":
            if len(buf) < max_len:
                buf.insert(rng.randint(0, len(buf)), rng.randrange(256))
        elif op == "delete" and buf:
            del buf[rng.randrange(len(buf))]
        elif op == "splice" and corpus:
            other = rng.choice(corpus)
            if other:
                cut_a = rng.randint(0, len(buf))
                cut_b = rng.randrange(len(other))
                buf = bytearray(buf[:cut_a]) + bytearray(other[cut_b:])
                del buf[max_len:]
    return bytes(buf)

import os

import pytest


def primes_up_to(n: int) -> list[int]:
    """Sieve of Eratosthenes, inclusive."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            start = p * p
            sieve[start::p] = b"\x00" * len(sieve[start::p])
    return [i for i, v in enumerate(sieve) if v]


def odd_primes_up_to(n: int) -> list[int]:
    return primes_up_to(n)[1:]


def admissible_m(p: int) -> list[int]:
    """Every m with 2m | p-1, i.e. the divisors of (p-1)/2."""
    half = (p - 1) // 2
    return [m for m in range(1, half + 1) if half % m == 0]


def require_fork(threads: int) -> None:
    """Skip a pooled run where os.fork does not exist: there a scan runs
    in one process, whatever the thread count."""
    if threads > 1 and not hasattr(os, "fork"):
        pytest.skip("the pool forks its workers")


@pytest.fixture(scope="session")
def primes_10k():
    return odd_primes_up_to(9999)


@pytest.fixture(scope="session")
def primes_100k():
    return odd_primes_up_to(99999)

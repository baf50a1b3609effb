"""Discrete-event simulation substrate (engine, resources, RNG)."""

from .engine import SEC, MSEC, USEC, AllOf, AnyOf, Environment, Event, Interrupt, Process, Timeout
from .resources import BandwidthResource, Barrier, LockStats, Mutex, RwLock, Semaphore
from .rng import DEFAULT_SEED, make_rng

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "USEC",
    "MSEC",
    "SEC",
    "Mutex",
    "Semaphore",
    "RwLock",
    "Barrier",
    "BandwidthResource",
    "LockStats",
    "make_rng",
    "DEFAULT_SEED",
]

"""Exception types shared across the package, and the memory budget."""

# Memory one guarded allocation may take (a partition family or its read
# masks, a sector basis, Hamiltonian or trajectory, an entropy plan); the
# size guards refuse anything larger before allocating it
MEMORY_BUDGET = 2 << 30


class SpinChainError(Exception):
    """Base class for package-specific errors."""


class ConfigError(SpinChainError):
    """A run configuration failed validation."""


class CapacityError(SpinChainError):
    """A requested computation exceeds a configured size guard."""


class NumericalConsistencyError(SpinChainError):
    """A numerical invariant was violated beyond roundoff tolerance."""


def check_budget(subject: str, need: int, what: str):
    """Raise CapacityError, giving the estimate, when ``need`` bytes exceed the budget."""
    if need > MEMORY_BUDGET:
        raise CapacityError(
            f"{subject}, about {need / 1e9:.1f} GB {what}, "
            f"over the {MEMORY_BUDGET >> 30} GiB budget")

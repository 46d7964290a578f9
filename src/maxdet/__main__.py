"""``python -m maxdet`` and the ``maxdet`` script: both call ``run``."""

import sys


def run() -> int:
    """Import the CLI and run it; a failed import (numpy missing, or too
    little memory to load it) is one ``error:`` line and exit 1.

    Short of address space, numpy's import has raised ImportError,
    MemoryError and, from an extension module's failed load, SystemError.
    """
    try:
        from .cli import main
    except (ImportError, MemoryError, SystemError) as exc:
        detail = type(exc).__name__ + (f": {exc}" if str(exc) else "")
        print(f"error: cannot start maxdet ({detail})", file=sys.stderr)
        return 1
    return main()


if __name__ == "__main__":
    sys.exit(run())

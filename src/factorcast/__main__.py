"""``python -m factorcast``: the same command line as the ``factorcast`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())

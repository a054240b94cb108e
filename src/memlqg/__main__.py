"""`python -m memlqg`: the same command-line driver as the `memlqg` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())

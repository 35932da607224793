"""``python -m qwsense``: the same command line as the ``qwsense`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())

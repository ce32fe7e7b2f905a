"""``python -m crautomata``: the same command line as the ``crautomata`` script."""

from .cli import main

if __name__ == "__main__":
    main()

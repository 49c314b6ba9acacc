"""``python -m nmlkit``: the ``nmlkit`` command line."""
from .cli import main

raise SystemExit(main())

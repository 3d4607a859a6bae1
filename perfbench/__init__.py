"""The repo benchmark; ``run.py`` is the entry point."""

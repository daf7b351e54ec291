"""One module per CLI subcommand.

Each has ``run(args, g)``, which returns the subcommand's result as one
dict (``build --format dot`` writes its graph and returns None), and
``render(data)``, the text of ``--format table`` made from that dict.
``cli._run`` imports only the module of the subcommand it runs, so a run
compiles no other subcommand's code.  No module here imports
``braidscope.cli``: under ``python -m braidscope.cli`` that would compile
``cli.py`` a second time.  Library functions are imported inside
``run``, so a name rebound in its module is the one called.
"""

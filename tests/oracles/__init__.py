"""Code only the tests run: reference implementations and test-mesh builders
that no path of ``src/repro`` executes."""

"""REP009 fixture package: payloads the call graph cannot follow."""

"""Clean resource fixtures: every REP012 idiom done right."""

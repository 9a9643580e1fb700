"""Command-line operator surface: ``gulfclimate`` (see :mod:`.main`)."""

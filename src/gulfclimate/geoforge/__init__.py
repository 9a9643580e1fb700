"""Visual-temporal pipeline: geocoding, grid retrieval, windowing, charts, QA."""

"""Act-observe-reason agent: routing, control loop, grounded synthesis."""

"""The names of the simulation tiers, as plain data.

:meth:`SimulationPlan.run <repro.sweep3d.driver.SimulationPlan.run>`
takes one of them as ``mode``; the scenario backends, the prediction
service and the command line check an ``execution`` setting against the
same tuple without loading the simulator.
"""

#: The execution tiers :meth:`SimulationPlan.run` accepts as ``mode``.
EXECUTION_MODES = ("auto", "engine", "replay", "steady")

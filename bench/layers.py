"""The single table of layer boundaries the traced run wraps.

A layer is one of this repo's modules (``firmware.bgp.daemon``,
``net.trie``, ...).  Its boundaries are the functions other layers
call into it through — its public methods — plus, where the layer is
only ever entered through a handler it registered with a neighbour (a
timer callback, a frame or packet handler, a worker job), that handler.
Anything not listed is charged to whichever listed boundary called it,
so a private helper stays with its own layer as long as the public
method above it is listed.

:func:`tracer` resolves every entry at install time and fails naming
the first one that is missing, so a rename in ``src/`` cannot silently
drop a layer from the attribution.
"""

from __future__ import annotations

from trace import Tracer

_ENGINE = "repro.sim.engine:"
_RIB = "repro.firmware.bgp.rib:"


def _of(prefix: str, *names: str) -> list:
    return [prefix + name for name in names]


LAYERS = {
    "core.orchestrator": _of(
        "repro.core.orchestrator:CrystalNet.", "__init__", "prepare",
        "mockup", "converge", "run", "pull_states", "pull_config",
        "warm_reload", "reload", "connect", "disconnect", "destroy",
        "enable_timeline", "record_timeline", "metrics_dump", "_boot_guest", "_control_plane_ready",
        "_all_quiescent", "_note_firmware_crash"),
    "core.planner": ["repro.core.planner:plan_vms"],
    "core.health": _of(
        "repro.core.health:HealthMonitor.", "__init__", "start", "stop",
        "check_once", "recover", "skew_probe", "spare_count"),
    "boundary": [
        "repro.boundary.safety:classify_boundary",
        "repro.boundary.search:find_safe_dc_boundary",
        *_of("repro.boundary.speaker:SpeakerOS.", "__init__", "on_start",
             "on_stop", "pull_states", "is_quiescent", "execute"),
    ],
    "config": [
        "repro.config.dialects:parse_config",
        "repro.config.dialects:render_config",
        "repro.config.generator:ConfigGenerator.__init__",
        "repro.config.generator:ConfigGenerator.generate_all",
    ],
    "verify.batfish": _of(
        "repro.verify.batfish:ControlPlaneSimulator.", "__init__", "compute",
        "announcements_to"),
    "verify.fibdiff": [
        "repro.verify.fibdiff:fibdiff_doc",
        "repro.verify.fibdiff:normalize_fib",
        "repro.verify.fibdiff:FibComparator.diff",
    ],
    "sim.engine": [
        *_of(_ENGINE + "Environment.", "step", "run", "peek", "timeout",
             "timer", "call_later", "call_at", "process", "all_of", "any_of",
             "event"),
        *_of(_ENGINE, "Timeout.__init__", "Timer.__init__", "Timer.cancel",
             "Event.succeed", "Event.fail", "Event.add_callback",
             "Process._step", "Process.interrupt"),
    ],
    "sim.resources": _of(
        "repro.sim.resources:CpuScheduler.", "execute", "backlog",
        "busy_until"),
    "virt": [
        *_of("repro.virt.netns:", "VirtualInterface.transmit",
             "VirtualInterface.receive", "VirtualInterface.set_up",
             "VirtualInterface.set_down", "NetworkNamespace.deliver",
             "Bridge.forward", "Bridge.add_port", "Bridge.remove_port"),
        *_of("repro.virt.vxlan:", "VxlanTunnel.deliver",
             "VxlanEndpoint.handle_datagram", "VxlanEndpoint.create_tunnel"),
        *_of("repro.virt.cloud:", "Cloud.deliver", "Cloud.spawn_vm",
             "Cloud.fail_vm", "Cloud.delete_vm",
             "VirtualMachine.receive_underlay",
             "VirtualMachine.enqueue_underlay",
             "VirtualMachine._drain_ingress", "VirtualMachine.crash",
             "VirtualMachine.reboot", "VirtualMachine.create_bridge"),
        *_of("repro.virt.container:", "Container.start", "Container.stop",
             "Container.kill", "Container.oom_kill", "Container.restart",
             "DockerEngine.create", "DockerEngine.remove",
             "DockerEngine.kill_all"),
        *_of("repro.virt.links:LinkFabric.", "connect", "disconnect",
             "reconnect", "destroy"),
        *_of("repro.virt.links:DataLink.", "set_down", "set_up"),
        "repro.virt.mgmt:ManagementPlane.register_device",
    ],
    "firmware.worker": _of(
        "repro.firmware.worker:SerialWorker.", "submit", "_job_done", "stop",
        "idle"),
    "firmware.netstack": _of(
        "repro.firmware.netstack:HostStack.", "send_ip", "_on_frame",
        "_send_arp_request", "attach", "detach", "configure_interface",
        "deconfigure_all", "register_protocol", "source_address_for",
        "is_local_address"),
    "firmware.device": _of(
        "repro.firmware.device:DeviceOS.", "__init__", "on_start", "on_stop",
        "_start_protocols", "is_quiescent", "pull_fib", "pull_states",
        "execute"),
    "firmware.fib": _of(
        "repro.firmware.fib:Fib.", "install", "remove", "lookup", "get",
        "routes", "clear_protocol"),
    "firmware.bgp.session": _of(
        "repro.firmware.bgp.session:BgpSession.", "__init__", "start",
        "stop", "accept", "reset", "send_update", "_on_message",
        "_on_connected", "_on_conn_closed",
        "_attempt_connect", "_connect_timeout", "_established_callback",
        "_send_keepalive", "_hold_check"),
    "firmware.bgp.daemon": _of(
        "repro.firmware.bgp.daemon:BgpDaemon.", "__init__", "start", "stop",
        "warm_reload", "reset_session", "invalidate_caches", "is_quiescent",
        "rib_snapshot", "explain",
        "_on_accept", "_session_transition", "_on_session_established",
        "_on_session_down", "_on_session_update", "_process_update",
        "_run_decision", "_flush", "_mrai_fire"),
    "firmware.bgp.decision": [
        "repro.firmware.bgp.decision:select",
        "repro.firmware.bgp.decision:explain_candidates",
    ],
    "firmware.bgp.policy": [
        "repro.firmware.bgp.policy:apply_route_map",
        "repro.firmware.bgp.policy:evaluate_route_map",
        *_of("repro.firmware.bgp.policy:PolicyContext.", "from_config",
             "invalidate", "evaluate"),
    ],
    "firmware.bgp.rib": [
        *_of(_RIB + "AdjRibIn.", "insert", "withdraw", "drop_peer",
             "candidates", "peer_prefixes", "route_count"),
        *_of(_RIB + "LocRib.", "set", "remove", "best", "multipath",
             "prefixes", "items"),
        *_of(_RIB + "AdjRibOut.", "record", "forget", "advertised", "table",
             "drop_peer", "prefixes_for"),
    ],
    "firmware.bgp.messages": [
        *_of("repro.firmware.bgp.messages:PathAttributes.", "intern",
             "interned", "prepend", "with_next_hop", "replace"),
        "repro.firmware.bgp.messages:_restore_attrs",
    ],
    "net.stream": [
        *_of("repro.net.stream:Connection.", "send", "close", "abort"),
        *_of("repro.net.stream:StreamManager.", "_on_packet", "connect",
             "listen", "unlisten", "shutdown"),
    ],
    "net.trie": _of(
        "repro.net.trie:PrefixTrie.", "insert", "delete", "get",
        "longest_match", "covering", "items"),
    "provenance": [
        *_of("repro.provenance.chain:ProvenanceTracker.", "originate",
             "aggregate", "extend", "append"),
        *_of("repro.provenance.timeline:StateTimeline.", "record", "blame",
             "diff", "churn", "divergence", "set_golden", "fibs_at"),
        "repro.provenance.dump:network_dump",
    ],
    "obs": [
        *_of("repro.obs.metrics:", "_CounterChild.inc", "_GaugeChild.set",
             "_HistogramChild.observe", "Counter.inc", "Gauge.set",
             "Histogram.observe", "Metric.labels", "MetricsRegistry.counter",
             "MetricsRegistry.gauge", "MetricsRegistry.histogram",
             "MetricsRegistry.to_dict"),
        *_of("repro.obs.trace:", "Tracer.begin", "Span.finish",
             "Span.annotate"),
        "repro.obs.events:EventLog.emit",
        "repro.obs.flight:FlightRecorder.note",
        *_of("repro.obs.memory:MemoryMonitor.", "poll", "sample"),
    ],
    "snapshot.state": [
        "repro.snapshot.state:snapshot",
        "repro.snapshot.state:fork",
    ],
    "snapshot.deltas": [
        "repro.snapshot.deltas:apply_delta",
        "repro.snapshot.deltas:network_fibs",
        *_of("repro.snapshot.deltas:", "LinkCut.apply", "ConfigReload.apply",
             "PolicyEdit.apply", "SessionReset.apply"),
    ],
    "serve": [
        *_of("repro.serve:WhatIfServer.", "__init__", "materialize",
             "submit", "drain", "close"),
        *_of("repro.serve:_FibCache.", "__init__", "__call__"),
    ],
    "chaos.engine": [
        *_of("repro.chaos.engine:ChaosEngine.", "__init__", "run", "inject",
             "settle", "finish"),
        "repro.chaos.spec:FaultSchedule.generate",
    ],
    "chaos.invariants": _of(
        "repro.chaos.invariants:InvariantChecker.", "__init__",
        "snapshot_golden", "system_ready", "check"),
    "campaign": [
        *_of("repro.campaign.runner:CampaignRunner.", "__init__", "run"),
        *_of("repro.campaign.worker:ScenarioEvaluator.", "__init__",
             "eval_one", "eval_batch", "close"),
        "repro.campaign.worker:run_scenario",
        "repro.campaign.minimize:minimize_schedule",
        "repro.campaign.mutate:mutate_faults",
        "repro.campaign.signature:scenario_signature",
        "repro.campaign.signature:signature_hash",
        *_of("repro.campaign.corpus:Corpus.", "note_scenario", "absorb",
             "add"),
    ],
    "gc": [],                    # timed through gc.callbacks
}

# Counters kept at a boundary on every call, nested ones included.
COUNTED = {
    _ENGINE + "Environment.step": "sim.engine.events",
}

# Work done in a forked child starts at these calls ...
CHILD_ENTRY = [
    "repro.snapshot.deltas:apply_delta",
    "repro.campaign.worker:run_scenario",
]
# ... and is folded into the parent when these return.
CHILD_REAPER = [
    "repro.serve:WhatIfServer.drain",
    "repro.campaign.worker:ScenarioEvaluator.eval_one",
]

# prepare()/mockup()/reload and the health monitor run as generator
# processes resumed from inside Environment.step; without this their
# bodies would hide in sim.engine's self time.
PROCESS_STEP = _ENGINE + "Process._step"
GENERATOR_OWNERS = {
    "repro.core.orchestrator": "core.orchestrator",
    "repro.core.health": "core.health",
}


def tracer() -> Tracer:
    return Tracer(LAYERS, counted=COUNTED, child_entry=CHILD_ENTRY,
                  child_reaper=CHILD_REAPER,
                  generator_owners=GENERATOR_OWNERS,
                  process_step=PROCESS_STEP)

let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_per_s", "1/s");
    ("latency_p50_us", "us");
    ("latency_tail_us", "us");
    ("pqos", "ratio");
    ("admitted_ratio", "ratio");
    ("peak_rss_mib", "MiB");
  ]

let per_layer =
  [
    ("net.lines_per_poll", "count");
    ("net.reactor_self_us_per_event", "us");
    ("net.write_calls_per_kevent", "count");
    ("fabric.us_per_event", "us");
    ("daemon.handle_line_self_us_per_event", "us");
    ("daemon.send_us_per_event", "us");
    ("daemon.replay_s", "s");
    ("proto.parse_us_per_line", "us");
    ("proto.format_us_per_response", "us");
    ("wal.codec_us_per_record", "us");
    ("wal.write_us_per_record", "us");
    ("wal.bytes_per_event", "B");
    ("wal.fsync_per_kevent", "count");
    ("wal.fsync_us_p50", "us");
    ("wal.fsync_ms_max", "ms");
    ("wal.read_s", "s");
    ("engine.place_us_p50", "us");
    ("engine.place_us_p99", "us");
    ("engine.reopt_per_kevent", "count");
    ("engine.reopt_ms_p50", "ms");
    ("engine.reopt_ms_max", "ms");
    ("engine.reopt_share", "ratio");
    ("engine.readmits_per_kevent", "count");
    ("topology.generate_s", "s");
    ("model.world_generate_s", "s");
    ("core.two_phase_s", "s");
    ("service.engine_create_s", "s");
    ("model.world_cache_s", "s");
    ("model.world_dense_s", "s");
    ("core.grez_s", "s");
    ("core.grec_s", "s");
    ("model.aggregate_build_s", "s");
    ("core.agg_zones_s", "s");
    ("core.agg_contacts_s", "s");
    ("model.groups_per_kclient", "count");
    ("gc.minor_words_per_event", "words");
    ("gc.major_per_kevent", "count");
    ("trace.overhead_pct", "%");
    ("trace.unattributed_pct", "%");
    ("service.hi_p50_us", "us");
    ("service.hi_p99_us", "us");
    ("service.slo_events_per_s", "1/s");
    ("service.recover_s", "s");
    ("service.lo_p999_us", "us");
    ("service.lo_max_us", "us");
  ]

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;
  end_to_end : (string * float) list;
  per_layer : (string * float) list;
  notes : string list;
}

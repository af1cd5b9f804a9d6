let () =
  Alcotest.run "mdcc"
    [
      ("util", T_util.suite);
      ("sim", T_sim.suite);
      ("paxos", T_paxos.suite);
      ("storage", T_storage.suite);
      ("rstate", T_rstate.suite);
      ("decision", T_decision.suite);
      ("leader", T_leader.suite);
      ("protocol", T_protocol.suite);
      ("recovery", T_recovery.suite);
      ("stress", T_stress.suite);
      ("reads", T_reads.suite);
      ("serializable", T_serializable.suite);
      ("extensions", T_extensions.suite);
      ("core-units", T_core_units.suite);
      ("alloc", T_alloc.suite);
      ("stats", T_stats.suite);
      ("edge", T_edge.suite);
      ("baselines", T_baselines.suite);
      ("workload", T_workload.suite);
      ("chaos", T_chaos.suite);
      ("shard", T_shard.suite);
      ("obs", T_obs.suite);
      ("pool", T_pool.suite);
      ("lint", T_lint.suite);
      ("wire", T_wire.suite);
      ("bench", T_bench.suite);
    ]

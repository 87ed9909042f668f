//! Group ids are per `World`: building the same groups in two fresh
//! worlds of one process yields identical region tables, whatever was
//! built before in other worlds (earlier tests, other executor
//! threads).

use hl_cluster::ClusterBuilder;
use hl_fabric::HostId;
use hl_nvm::Region;
use hyperloop::fanout::{FanoutBuilder, FanoutConfig};
use hyperloop::multi::{MultiBuilder, MultiConfig};
use hyperloop::naive::{NaiveBuilder, NaiveConfig};
use hyperloop::{GroupBuilder, GroupConfig};

/// Build one group of every kind in a fresh world; return each host's
/// region table.
fn region_tables() -> Vec<Vec<Region>> {
    let (mut w, mut eng) = ClusterBuilder::new(4).arena_size(16 << 20).build();
    let replicas = vec![HostId(1), HostId(2)];
    let rep_bytes = 64 << 10;
    GroupBuilder::new(GroupConfig {
        client: HostId(0),
        replicas: replicas.clone(),
        rep_bytes,
        ..Default::default()
    })
    .build(&mut w);
    NaiveBuilder::new(NaiveConfig {
        client: HostId(0),
        replicas: replicas.clone(),
        rep_bytes,
        ..Default::default()
    })
    .build(&mut w, &mut eng);
    FanoutBuilder::new(FanoutConfig {
        client: HostId(0),
        primary: HostId(1),
        backups: vec![HostId(2), HostId(3)],
        rep_bytes,
        ..Default::default()
    })
    .build(&mut w);
    MultiBuilder::new(MultiConfig {
        clients: vec![HostId(0), HostId(3)],
        replicas,
        rep_bytes,
        ..Default::default()
    })
    .build(&mut w);
    w.hosts
        .iter()
        .map(|h| h.layout.regions().to_vec())
        .collect()
}

#[test]
fn same_groups_in_fresh_worlds_get_identical_region_tables() {
    let a = region_tables();
    let b = region_tables();
    assert!(
        a[1].iter().any(|r| r.name == "g0.rep"),
        "first group built in a world is g0"
    );
    assert_eq!(a, b, "region names depend on process history");
}

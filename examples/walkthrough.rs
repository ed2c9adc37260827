//! Figure 1 walkthrough: two cores inject coherence requests on a 4×4
//! ordered mesh; every node (including the sources, via loopback) observes
//! them in the identical global order decided by the notification network.
//!
//! ```text
//! cargo run --release --example walkthrough
//! ```

use scorpio_nic::{Nic, NicConfig, NicMode};
use scorpio_noc::{Endpoint, Fabric, MultiNetwork, NocConfig, RouterId, Sid};
use scorpio_notify::{NotifyConfig, NotifyNetwork, NotifyScheme};
use std::num::NonZeroUsize;

fn main() {
    let mesh = Fabric::Mesh.topology(4);
    let cores = mesh.router_count();
    let one = NonZeroUsize::new(1).expect("non-zero");
    let mut net: MultiNetwork<&'static str> =
        MultiNetwork::new(mesh.clone(), NocConfig::scorpio(), one, 0);
    // One plane, the chip's flat OR mesh.
    let cfg = NotifyConfig::for_mesh(&mesh);
    let mut notify = NotifyNetwork::with_scheme(&mesh, cfg, 1, NotifyScheme::Flat);
    let mut nics: Vec<Nic<&'static str>> = mesh
        .endpoints()
        .map(|ep| {
            let sid = ep.slot.is_tile().then_some(Sid(ep.router.0));
            Nic::new(ep, sid, NicMode::Ordered, cores, 1, NicConfig::default())
        })
        .collect();

    // T1/T2 (Figure 1): core 11 injects M1 (GETX Addr1), core 1 injects M2
    // (GETS Addr2) shortly after.
    let m1_src = net.endpoint_index(Endpoint::tile(RouterId(11)));
    let m2_src = net.endpoint_index(Endpoint::tile(RouterId(1)));
    println!("T1: core 11 injects M1 (GETX Addr1)");
    println!("T2: core  1 injects M2 (GETS Addr2)");
    let now = net.cycle();
    nics[m1_src]
        .try_send_request("M1(GETX Addr1)", now, &mut net)
        .unwrap();
    nics[m2_src]
        .try_send_request("M2(GETS Addr2)", now, &mut net)
        .unwrap();
    println!(
        "T3: both notifications broadcast at the next {}-cycle window boundary",
        notify.config().window
    );

    let mut logs: Vec<Vec<&'static str>> = vec![Vec::new(); nics.len()];
    for _ in 0..80 {
        let now = net.cycle();
        for (i, nic) in nics.iter_mut().enumerate() {
            nic.tick(now, &mut net, Some(&mut notify));
            while let Some(d) = nic.pop_ordered() {
                if logs[i].is_empty() {
                    println!(
                        "T5: {} receives {} first (SID == ESID {:?})",
                        if i < cores {
                            format!("core {i}")
                        } else {
                            format!("mc {}", i - cores)
                        },
                        d.payload,
                        d.sid
                    );
                }
                logs[i].push(d.payload);
            }
        }
        net.tick();
        net.commit();
        notify.tick();
    }

    let reference = &logs[0];
    assert!(
        logs.iter().all(|l| l == reference),
        "nodes disagreed on the global order!"
    );
    println!(
        "\nAll {} nodes (tiles + MC ports) processed the requests in the same order: {:?}",
        logs.len(),
        reference
    );
    println!("The rotating priority arbiter put core 1's M2 ahead of core 11's M1,");
    println!("matching the paper's walkthrough (priority starts at the lowest SID).");
}

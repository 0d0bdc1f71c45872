//! Bioinformatics scenario: a replicated genome database.
//!
//! The paper motivates replica selection with data-intensive science and
//! explicitly says "we can treat a biological database as a replica of
//! Data Grid". This example registers a sequence-database *collection*,
//! replicates it across sites, and shows how a BLAST-style client first
//! pulls the database from the best remote replica, then creates a local
//! replica so later runs hit local disk.
//!
//! ```sh
//! cargo run --example bioinformatics
//! ```

#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    reason = "example program; outside library scope"
)]

use datagrid::prelude::*;

const DB_FILES: [(&str, u64); 3] = [
    ("blast/nr.part1", 900 << 20),
    ("blast/nr.part2", 900 << 20),
    ("blast/est.idx", 120 << 20),
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut grid = paper_testbed(7).build();

    // Register the database as a logical collection with replicas at the
    // two fast sites.
    grid.catalog_mut().create_collection("blast-db".parse()?)?;
    for (name, bytes) in DB_FILES {
        grid.catalog_mut().register_logical(name.parse()?, bytes)?;
        grid.place_replica(name, "alpha4")?;
        grid.place_replica(name, "gridhit0")?;
        grid.catalog_mut()
            .add_to_collection(&"blast-db".parse()?, &name.parse()?)?;
    }
    let members = grid
        .catalog()
        .collection(&"blast-db".parse()?)
        .expect("collection registered")
        .len();
    println!("collection blast-db registered with {members} member files");

    grid.warm_up(SimDuration::from_secs(300));

    // A researcher at HIT (gridhit2) runs BLAST: the database must be
    // staged in first. The cost model picks gridhit0 (same site) over the
    // THU replica.
    let client = grid.host_id("gridhit2").expect("testbed host");
    println!("\nfirst run: staging the database to gridhit2");
    let mut total = 0.0;
    for (name, _) in DB_FILES {
        let report = grid.fetch_with(client, name, FetchOptions::default().with_parallelism(4))?;
        println!(
            "  {name}: from {} in {:.1} s ({:.1} Mbps)",
            report.chosen_candidate().host_name,
            report.transfer.duration().as_secs_f64(),
            report.transfer.avg_throughput().as_mbps(),
        );
        total += report.transfer.duration().as_secs_f64();
    }
    println!("  staging took {total:.1} s");

    // The site admin decides the database is hot and replicates it onto
    // the client machine itself (replica management: copy + register).
    println!("\nreplicating the collection onto gridhit2 for future runs");
    for (name, _) in DB_FILES {
        let outcome = grid.replicate(name, "gridhit2", 4)?;
        println!(
            "  {name}: copied in {:.1} s, replica registered",
            outcome.duration().as_secs_f64()
        );
    }

    // Second run: every file is now local — the selection scenario's
    // "if they are present at the local site, the application accesses
    // them immediately" branch.
    println!("\nsecond run: the database is local");
    for (name, _) in DB_FILES {
        let report = grid.fetch(client, name)?;
        assert!(report.local_hit, "replica must be found locally");
        println!(
            "  {name}: local read in {:.2} s",
            report.transfer.duration().as_secs_f64()
        );
    }
    Ok(())
}

//! A synthetic social-network scenario.
//!
//! The paper motivates counting answers as the backbone of decision
//! support over large data (Section 1, citing \[GS14\]). This module makes
//! that concrete: a `follows/likes` social graph generated by a
//! preferential-attachment process, and a catalog of analytics questions
//! phrased as UCQs whose answer *counts* are the business metric
//! ("how many X are there?").
//!
//! Used by the `social_network` example.

use epq_structures::{Signature, Structure};
use rand::Rng;

/// The social signature: `follows(a, b)` (a follows b) and
/// `likes(a, p)` (user a likes post p — posts share the universe for
/// simplicity, occupying the id range after users).
pub fn social_signature() -> Signature {
    Signature::from_symbols([("follows", 2), ("likes", 2)])
}

/// Generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct SocialConfig {
    /// Number of users (elements `0..users`).
    pub users: usize,
    /// Number of posts (elements `users..users+posts`).
    pub posts: usize,
    /// Average follows per user.
    pub avg_follows: usize,
    /// Average likes per user.
    pub avg_likes: usize,
}

impl Default for SocialConfig {
    fn default() -> Self {
        SocialConfig {
            users: 40,
            posts: 20,
            avg_follows: 4,
            avg_likes: 3,
        }
    }
}

/// Generates the network with preferential attachment on follow targets
/// (early users accumulate followers — a hub-heavy degree profile).
pub fn generate_social<R: Rng>(rng: &mut R, config: &SocialConfig) -> Structure {
    let SocialConfig {
        users,
        posts,
        avg_follows,
        avg_likes,
    } = *config;
    let mut s = Structure::new(social_signature(), users + posts);
    let mut in_degree = vec![1usize; users]; // +1 smoothing
    for follower in 0..users as u32 {
        for _ in 0..avg_follows {
            // Preferential attachment: weight by in-degree.
            let total: usize = in_degree.iter().sum();
            let mut pick = rng.gen_range(0..total);
            let mut target = 0usize;
            for (i, &w) in in_degree.iter().enumerate() {
                if pick < w {
                    target = i;
                    break;
                }
                pick -= w;
            }
            if target as u32 != follower {
                s.add_tuple_named("follows", &[follower, target as u32]);
                in_degree[target] += 1;
            }
        }
    }
    for user in 0..users as u32 {
        for _ in 0..avg_likes {
            let post = (users + rng.gen_range(0..posts.max(1))) as u32;
            s.add_tuple_named("likes", &[user, post]);
        }
    }
    s
}

/// An analytics question: a name, a UCQ (in the crate's query syntax),
/// and a human explanation of what the count means.
pub struct AnalyticsQuery {
    /// Short identifier.
    pub name: &'static str,
    /// The query text (parse with `epq_logic::parser::parse_query`).
    pub text: &'static str,
    /// What the count measures.
    pub meaning: &'static str,
}

/// The catalog of analytics queries used by the example.
/// All are existential positive; several are genuine unions.
pub fn analytics_catalog() -> Vec<AnalyticsQuery> {
    vec![
        AnalyticsQuery {
            name: "follow-edges",
            text: "follows(a,b)",
            meaning: "ordered follow relationships",
        },
        AnalyticsQuery {
            name: "mutual-follows",
            text: "follows(a,b) & follows(b,a)",
            meaning: "ordered mutually-following pairs",
        },
        AnalyticsQuery {
            name: "follow-chains",
            text: "follows(a,b) & follows(b,c)",
            meaning: "length-2 follow chains (influence paths)",
        },
        AnalyticsQuery {
            name: "influencers",
            text: "(a) := exists f1, f2 . follows(f1,a) & follows(f2,a) & follows(a,f1)",
            meaning: "users followed by someone they follow back plus another",
        },
        AnalyticsQuery {
            name: "co-engagement",
            text: "(p) := exists u, v . likes(u,p) & likes(v,p) & follows(u,v)",
            meaning: "posts liked by a follower/followee pair",
        },
        AnalyticsQuery {
            name: "reach-or-engage",
            text: "(a, b) := follows(a,b) | (exists p . likes(a,p) & likes(b,p))",
            meaning: "pairs connected by a follow OR a co-liked post (a true union)",
        },
        AnalyticsQuery {
            name: "triangles",
            text: "follows(a,b) & follows(b,c) & follows(c,a)",
            meaning: "directed follow triangles",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use epq_counting::brute::count_ep_brute;
    use epq_logic::parser::parse_query;
    use epq_logic::query::check_against_signature;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generation_is_deterministic_and_well_typed() {
        let config = SocialConfig {
            users: 12,
            posts: 6,
            avg_follows: 3,
            avg_likes: 2,
        };
        let a = generate_social(&mut StdRng::seed_from_u64(3), &config);
        let b = generate_social(&mut StdRng::seed_from_u64(3), &config);
        assert_eq!(a, b);
        assert_eq!(a.universe_size(), 18);
        assert!(a.tuple_count() > 0);
    }

    #[test]
    fn catalog_queries_parse_and_match_signature() {
        let sig = social_signature();
        for q in analytics_catalog() {
            let parsed = parse_query(q.text)
                .unwrap_or_else(|e| panic!("catalog query {} fails to parse: {e}", q.name));
            check_against_signature(parsed.formula(), &sig)
                .unwrap_or_else(|e| panic!("catalog query {}: {e}", q.name));
        }
    }

    #[test]
    fn catalog_counts_run_on_a_small_network() {
        let config = SocialConfig {
            users: 8,
            posts: 4,
            avg_follows: 2,
            avg_likes: 2,
        };
        let net = generate_social(&mut StdRng::seed_from_u64(11), &config);
        for q in analytics_catalog() {
            let parsed = parse_query(q.text).unwrap();
            // Just exercise counting end to end; counts are data-dependent.
            let _ = count_ep_brute(&parsed, &net);
        }
    }

    #[test]
    fn preferential_attachment_creates_hubs() {
        let config = SocialConfig {
            users: 30,
            posts: 5,
            avg_follows: 4,
            avg_likes: 1,
        };
        let net = generate_social(&mut StdRng::seed_from_u64(5), &config);
        let follows = net.signature().lookup("follows").unwrap();
        let mut in_deg = vec![0usize; net.universe_size()];
        for t in net.relation(follows).tuples() {
            in_deg[t[1] as usize] += 1;
        }
        let max = in_deg.iter().max().unwrap();
        let avg = in_deg.iter().sum::<usize>() as f64 / 30.0;
        assert!(
            *max as f64 > 2.0 * avg,
            "expected a hub (max {max}, avg {avg})"
        );
    }
}

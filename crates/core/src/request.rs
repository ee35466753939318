//! INC service requests and their fallible builder.
//!
//! [`ServiceRequest::builder`] is the preferred construction path: it
//! validates structural problems — empty ids, missing endpoints, a weights
//! vector whose length disagrees with the sources — at *build* time, so a
//! malformed request never reaches the controller's compile/place pipeline.

use clickinc_ir::Fnv;
use clickinc_lang::templates::Template;
use std::fmt;

/// A structural problem with a [`ServiceRequest`], caught at build time.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RequestError {
    /// The user id is empty.
    EmptyUser,
    /// The user id is not an identifier `[A-Za-z][A-Za-z0-9_]*`.  The
    /// backends emit every tenant name into device code as an identifier,
    /// so ids that differ only in other characters (`a-b`, `a_b`) would
    /// declare the same tables.
    InvalidUser(String),
    /// No program source was provided (or it is empty).
    EmptySource,
    /// No traffic source host was provided.
    NoSources,
    /// A traffic source host name is empty.
    EmptyHost,
    /// No destination host was provided (or it is empty).
    EmptyDestination,
    /// Per-source traffic weights were provided but their length disagrees
    /// with the number of sources.
    WeightsMismatch {
        /// Number of traffic source hosts.
        sources: usize,
        /// Number of weights provided.
        weights: usize,
    },
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::EmptyUser => write!(f, "user id must not be empty"),
            RequestError::InvalidUser(user) => write!(
                f,
                "user id `{user}` is not an identifier: a letter, then letters, digits or `_`"
            ),
            RequestError::EmptySource => write!(f, "program source must not be empty"),
            RequestError::NoSources => write!(f, "at least one traffic source host is required"),
            RequestError::EmptyHost => write!(f, "traffic source host names must not be empty"),
            RequestError::EmptyDestination => write!(f, "destination host must not be empty"),
            RequestError::WeightsMismatch { sources, weights } => write!(
                f,
                "{weights} traffic weight(s) for {sources} source host(s) — provide one weight \
                 per source, or none for uniform traffic"
            ),
        }
    }
}

impl std::error::Error for RequestError {}

/// A request to deploy one INC program for one user.
#[derive(Debug, Clone)]
pub struct ServiceRequest {
    /// User / program id (must be unique among active programs).
    pub user: String,
    /// ClickINC source of the program.
    pub source: String,
    /// Names of the client/worker servers generating the traffic.
    pub sources: Vec<String>,
    /// Name of the destination server.
    pub destination: String,
    /// Optional per-source traffic weights (packets per second).
    pub traffic_weights: Vec<f64>,
    /// Admission priority (higher = more important; default 0).  Consulted
    /// by priority-aware admission policies and by the service retry queue's
    /// drain order; it does not influence planning and is therefore excluded
    /// from [`fingerprint`](ServiceRequest::fingerprint).
    pub priority: u8,
}

impl ServiceRequest {
    /// Start building a request for `user` (the fallible, validating path):
    ///
    /// ```
    /// use clickinc::ServiceRequest;
    /// let request = ServiceRequest::builder("u1")
    ///     .source("forward()\n")
    ///     .from_("pod0a")
    ///     .rate_pps(1_000_000.0)
    ///     .from_("pod1a")
    ///     .rate_pps(500_000.0)
    ///     .to("pod2b")
    ///     .build()
    ///     .expect("well-formed request");
    /// assert_eq!(request.sources.len(), request.traffic_weights.len());
    /// ```
    pub fn builder(user: impl Into<String>) -> ServiceRequestBuilder {
        ServiceRequestBuilder {
            user: user.into(),
            source: String::new(),
            sources: Vec::new(),
            destination: String::new(),
            traffic_weights: Vec::new(),
            priority: 0,
        }
    }

    /// Build a request from raw ClickINC source (infallible legacy path; the
    /// controller re-validates at plan time).
    pub fn new(
        user: impl Into<String>,
        source: impl Into<String>,
        sources: &[&str],
        destination: &str,
    ) -> ServiceRequest {
        ServiceRequest {
            user: user.into(),
            source: source.into(),
            sources: sources.iter().map(|s| s.to_string()).collect(),
            destination: destination.to_string(),
            traffic_weights: Vec::new(),
            priority: 0,
        }
    }

    /// Build a request from an instantiated template.
    pub fn from_template(
        template: Template,
        sources: &[&str],
        destination: &str,
    ) -> ServiceRequest {
        ServiceRequest::new(template.name.clone(), template.source, sources, destination)
    }

    /// Set the admission priority (builder style; higher wins).
    pub fn with_priority(mut self, priority: u8) -> ServiceRequest {
        self.priority = priority;
        self
    }

    /// A stable digest of everything about this request that influences
    /// planning: the user, the program source, the traffic endpoints and the
    /// per-source weights.  Two requests that fingerprint equal are solved to
    /// the same plan at the same controller epoch;
    /// [`DeploymentPlan::fingerprint`](crate::DeploymentPlan::fingerprint)
    /// folds it in.
    ///
    /// `priority` is deliberately excluded: it only orders *admission*, never
    /// the solved plan.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_str(&self.user);
        h.write_str(&self.source);
        h.write_u64(self.sources.len() as u64);
        for host in &self.sources {
            h.write_str(host);
        }
        h.write_str(&self.destination);
        h.write_u64(self.traffic_weights.len() as u64);
        for w in &self.traffic_weights {
            h.write_u64(w.to_bits());
        }
        h.finish()
    }

    /// Check the structural invariants the builder enforces.  The controller
    /// calls this at plan time so requests assembled through the legacy
    /// constructors get the same validation, just later.
    pub fn validate(&self) -> Result<(), RequestError> {
        if self.user.is_empty() {
            return Err(RequestError::EmptyUser);
        }
        let mut chars = self.user.chars();
        let head = chars.next().is_some_and(|c| c.is_ascii_alphabetic());
        if !head || !chars.all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(RequestError::InvalidUser(self.user.clone()));
        }
        if self.source.is_empty() {
            return Err(RequestError::EmptySource);
        }
        if self.sources.is_empty() {
            return Err(RequestError::NoSources);
        }
        if self.sources.iter().any(String::is_empty) {
            return Err(RequestError::EmptyHost);
        }
        if self.destination.is_empty() {
            return Err(RequestError::EmptyDestination);
        }
        if !self.traffic_weights.is_empty() && self.traffic_weights.len() != self.sources.len() {
            return Err(RequestError::WeightsMismatch {
                sources: self.sources.len(),
                weights: self.traffic_weights.len(),
            });
        }
        Ok(())
    }
}

/// Fallible [`ServiceRequest`] builder; see [`ServiceRequest::builder`].
#[derive(Debug, Clone)]
pub struct ServiceRequestBuilder {
    user: String,
    source: String,
    sources: Vec<String>,
    destination: String,
    traffic_weights: Vec<f64>,
    priority: u8,
}

impl ServiceRequestBuilder {
    /// Set the raw ClickINC program source.
    pub fn source(mut self, source: impl Into<String>) -> Self {
        self.source = source.into();
        self
    }

    /// Take the program source from an instantiated provider template.
    pub fn template(mut self, template: Template) -> Self {
        self.source = template.source;
        self
    }

    /// Append a traffic source host (call once per client/worker server).
    pub fn from_(mut self, host: impl Into<String>) -> Self {
        self.sources.push(host.into());
        self
    }

    /// Set the destination host.
    pub fn to(mut self, host: impl Into<String>) -> Self {
        self.destination = host.into();
        self
    }

    /// Attach an offered rate (packets per second) to the most recently
    /// added source host.  Either give every source a rate or none:
    /// [`build`](ServiceRequestBuilder::build) rejects partial weighting.
    pub fn rate_pps(mut self, rate: f64) -> Self {
        self.traffic_weights.push(rate);
        self
    }

    /// Set the admission priority (higher wins; the default is 0).
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Validate and produce the request.
    pub fn build(self) -> Result<ServiceRequest, RequestError> {
        let request = ServiceRequest {
            user: self.user,
            source: self.source,
            sources: self.sources,
            destination: self.destination,
            traffic_weights: self.traffic_weights,
            priority: self.priority,
        };
        request.validate()?;
        Ok(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clickinc_lang::templates::{kvs_template, KvsParams};

    #[test]
    fn builder_validates_and_produces_requests() {
        let r = ServiceRequest::builder("u1")
            .source("forward()\n")
            .from_("a")
            .rate_pps(1.0)
            .from_("b")
            .rate_pps(2.0)
            .to("c")
            .build()
            .expect("valid request");
        assert_eq!(r.user, "u1");
        assert_eq!(r.sources, vec!["a", "b"]);
        assert_eq!(r.traffic_weights, vec![1.0, 2.0]);

        let t = kvs_template("kvs_0", KvsParams::default());
        let r = ServiceRequest::builder("kvs_0")
            .template(t)
            .from_("pod0a")
            .to("pod2b")
            .build()
            .expect("template request");
        assert_eq!(r.user, "kvs_0");
        assert!(r.source.contains("cache"));
    }

    #[test]
    fn builder_rejects_structural_problems() {
        let err = |b: ServiceRequestBuilder| b.build().unwrap_err();
        assert_eq!(
            err(ServiceRequest::builder("").source("forward()\n").from_("a").to("b")),
            RequestError::EmptyUser
        );
        assert_eq!(err(ServiceRequest::builder("u").from_("a").to("b")), RequestError::EmptySource);
        assert_eq!(
            err(ServiceRequest::builder("u").source("forward()\n").to("b")),
            RequestError::NoSources
        );
        assert_eq!(
            err(ServiceRequest::builder("u").source("forward()\n").from_("").to("b")),
            RequestError::EmptyHost
        );
        assert_eq!(
            err(ServiceRequest::builder("u").source("forward()\n").from_("a")),
            RequestError::EmptyDestination
        );
        assert_eq!(
            err(ServiceRequest::builder("u")
                .source("forward()\n")
                .from_("a")
                .from_("b")
                .rate_pps(5.0)
                .to("c")),
            RequestError::WeightsMismatch { sources: 2, weights: 1 }
        );
    }

    #[test]
    fn fingerprint_tracks_the_planning_inputs_and_nothing_else() {
        let base = || ServiceRequest::new("u1", "forward()\n", &["a", "b"], "c");
        assert_eq!(base().fingerprint(), base().fingerprint(), "deterministic");
        // every planning input moves the digest…
        let mut renamed = base();
        renamed.user = "u2".to_string();
        assert_ne!(base().fingerprint(), renamed.fingerprint());
        let mut edited = base();
        edited.source = "drop()\n".to_string();
        assert_ne!(base().fingerprint(), edited.fingerprint());
        let mut rerouted = base();
        rerouted.destination = "d".to_string();
        assert_ne!(base().fingerprint(), rerouted.fingerprint());
        let mut reweighted = base();
        reweighted.traffic_weights = vec![1.0, 2.0];
        assert_ne!(base().fingerprint(), reweighted.fingerprint());
        // …while admission priority does not (it orders commits, not plans)
        let prioritized = base().with_priority(9);
        assert_eq!(base().fingerprint(), prioritized.fingerprint());
        // host-list splits don't collide (length-delimited hashing)
        let joined = ServiceRequest::new("u1", "forward()\n", &["ab"], "c");
        assert_ne!(base().fingerprint(), joined.fingerprint());
    }

    #[test]
    fn legacy_constructors_validate_at_plan_time() {
        assert_eq!(
            ServiceRequest::new("", "forward()\n", &["a"], "b").validate(),
            Err(RequestError::EmptyUser)
        );
        assert!(ServiceRequest::new("u", "forward()\n", &["a"], "b").validate().is_ok());
    }

    #[test]
    fn user_ids_are_identifiers() {
        let validate =
            |user: &str| ServiceRequest::new(user, "forward()\n", &["a"], "b").validate();
        for user in ["a-b", "_a", "0a", "a b", "a.b", "é"] {
            assert_eq!(validate(user), Err(RequestError::InvalidUser(user.into())), "{user}");
        }
        for user in ["a_b", "kvs0", "A", "x_1_"] {
            assert_eq!(validate(user), Ok(()), "{user}");
        }
    }
}

from setuptools import find_packages, setup

setup(
    name="repro",
    description="Memory-constrained workflow mapping onto heterogeneous "
                "platforms (ICPP 2024 reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # numpy is required: `import repro` loads it through repro.utils.rng,
    # which seeds every generator and randomized heuristic
    install_requires=["numpy"],
)
